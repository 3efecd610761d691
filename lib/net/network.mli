(** Simulated message network.

    Delivers typed messages between nodes of a {!Topology.t} with per-link
    latency, serialisation delay, probabilistic loss, node crashes and
    network partitions. Delivery is at-most-once and unordered across links
    (ordered per src/dst pair at equal delay only by scheduling order) —
    the unreliable substrate the paper's retry logic assumes. *)

module type MESSAGE = sig
  type t

  val size_bytes : t -> int
  (** Approximate wire size, used for serialisation delay and traffic
      accounting. *)

  val kind : t -> string
  (** Short label for per-message-kind counters and traces. *)

  val kinds : t -> string list
  (** Kind labels of the logical messages inside this envelope — a
      singleton [[kind m]] for ordinary messages, one label per item for
      batch envelopes (see {!Krpc.Rpc}). Feeds [stats.by_kind] and
      [stats.atoms] so per-kind counts stay comparable whether or not
      coalescing is on. *)
end

(** Traffic counters: this network's, and every RPC link's (see
    [Krpc.Rpc.Make.link]). A socket link counts its own endpoint's view
    with [in_flight = 0], so there the books balance per process pair, not
    globally. *)
type stats = {
  sent : int;       (** envelopes handed to the wire *)
  delivered : int;  (** envelopes handed to the receiving node's RPC core *)
  dropped : int;    (** lost to crash/partition/loss or a dead socket *)
  in_flight : int;  (** scheduled but not yet delivered *)
  atoms : int;
      (** logical messages sent: each item of a batch envelope counts
          once, so [atoms >= sent] and the gap measures coalescing *)
  bytes_sent : int;
  by_kind : (string * int) list;
      (** logical messages sent, per kind, sorted; sums to [atoms] *)
}

module Make (M : MESSAGE) : sig
  type t

  val create : Ksim.Engine.t -> Topology.t -> t
  val engine : t -> Ksim.Engine.t
  val topology : t -> Topology.t

  val set_handler : t -> Topology.node_id -> (src:Topology.node_id -> M.t -> unit) -> unit
  (** Install the message handler for a node; replaces any previous one. *)

  val send : t -> src:Topology.node_id -> dst:Topology.node_id -> M.t -> unit
  (** Fire-and-forget. Dropped silently when the source is down, the
      destination is down at delivery time, the pair is partitioned at send
      or delivery time, or the link's loss model says so. Local sends
      ([src = dst]) bypass the wire and cost a small constant. *)

  (** {1 Failure injection} *)

  val crash : t -> Topology.node_id -> unit
  (** Take the node off the network. In-flight messages towards it are
      lost and counted in [stats.dropped] — they never deliver, even if
      the node {!recover}s before their scheduled arrival. *)

  val recover : t -> Topology.node_id -> unit
  val is_up : t -> Topology.node_id -> bool

  val partition : t -> Topology.node_id list -> Topology.node_id list -> unit
  (** [partition t a b] blocks all traffic between the two groups (in both
      directions) until {!heal}. *)

  val heal : t -> unit
  (** Remove all partitions. *)

  val reachable : t -> Topology.node_id -> Topology.node_id -> bool

  val set_frame_faults :
    t -> ?seed:int -> ?drop:float -> ?duplicate:float -> ?delay:float ->
    unit -> unit
  (** Arm a seeded frame-level fault shim mirroring
      [Transport_unix.set_frame_faults]: each remote envelope is
      independently dropped with probability [drop], duplicated with
      probability [duplicate], and delayed by an extra uniform
      [[0, delay]] seconds (defaults all zero). [seed] reseeds the shim's
      private rng — it never draws from the engine's, so arming the shim
      does not perturb an existing seeded run's draw sequence. Shim drops
      count in [stats.dropped]; duplicates count as extra sent envelopes,
      preserving the conservation invariant. *)

  val clear_frame_faults : t -> unit

  (** {1 Accounting} *)

  val stats : t -> stats
  (** Traffic counters. [sent = delivered + dropped + in_flight] holds at
      all times, including across {!reset_stats}; the conservation
      invariant is over envelopes, not atoms. *)

  val reset_stats : t -> unit
  (** Zero the counters for a fresh measurement window. Messages in flight
      at reset time count as [sent] in the new window, so the conservation
      invariant above keeps holding as they deliver or drop. *)

  val set_trace : t -> (Ksim.Time.t -> src:Topology.node_id -> dst:Topology.node_id -> M.t -> unit) -> unit
  (** Called once per message at send time (after drop decisions for
      partitions/crashes at send, before loss/delivery). *)

  val clear_trace : t -> unit
end
