(** Simulated message network.

    Delivers typed messages between nodes of a {!Topology.t} with per-link
    latency, serialisation delay and probabilistic loss. Delivery is
    at-most-once and unordered across links (ordered per src/dst pair at
    equal delay only by scheduling order): the unreliable substrate the
    paper's retry logic assumes. Crashes, partitions, the frame shim and
    the traffic counters live in the network's one {!Edge.t}, shared by
    every node. *)

module type MESSAGE = sig
  type t

  val size_bytes : t -> int
  (** Wire size in bytes, used for serialisation delay and traffic
      accounting. The RPC core fills it with the length of the envelope's
      encoded frame, the bytes a socket link would write. *)

  val kind : t -> string
  (** Short label for per-message-kind counters and traces. *)

  val kinds : t -> string list
  (** Kind labels of the logical messages inside this envelope — a
      singleton [[kind m]] for ordinary messages, one label per item for
      batch envelopes (see {!Krpc.Rpc}). Feeds [stats.by_kind] and
      [stats.atoms] so per-kind counts stay comparable whether or not
      coalescing is on. *)
end

module Make (M : MESSAGE) : sig
  type t

  val create : Ksim.Engine.t -> Topology.t -> t
  val engine : t -> Ksim.Engine.t
  val topology : t -> Topology.t

  val edge : t -> Edge.t
  (** The global fault view, frame shim and traffic ledger. A crash there
      also voids every delivery already scheduled towards the node: those
      messages count as dropped and never arrive, even if the node
      recovers before their scheduled arrival. *)

  val set_handler : t -> Topology.node_id -> (src:Topology.node_id -> M.t -> unit) -> unit
  (** Install the message handler for a node; replaces any previous one. *)

  val send : t -> src:Topology.node_id -> dst:Topology.node_id -> M.t -> unit
  (** Fire-and-forget. Dropped silently when the source is down, the
      destination is down at delivery time, the pair is partitioned at send
      or delivery time, or the link's loss model or the edge's frame shim
      says so. Local sends ([src = dst]) bypass the wire and the shim and
      cost a small constant. *)

  val set_trace : t -> (Ksim.Time.t -> src:Topology.node_id -> dst:Topology.node_id -> M.t -> unit) -> unit
  (** Called once per message at send time (after drop decisions for
      partitions/crashes at send, before loss/delivery). *)

  val clear_trace : t -> unit
end
