(** A link's edge: everything a link does to an envelope besides moving it.

    Every link under the RPC core holds one edge. The simulated
    {!Network} holds one shared by every node, so its view is the global
    truth. A socket endpoint holds its own, so there each process keeps a
    local view, and a harness that applies the same fault calls to every
    endpoint recovers the simulated network's global semantics. An edge
    has three parts:

    - the injected-fault view: which nodes are down, which groups are
      partitioned, and so which pairs are {!reachable};
    - the seeded frame shim, which drops, delays and duplicates remote
      envelopes from its own rng in one fixed roll order;
    - the traffic ledger: the counters {!stats} reports.

    How an envelope moves, and what else a crash does to a link, stay
    with the link: it installs that reaction with {!on_crash}. *)

type node_id = Topology.node_id

type t

val create : ?seed:int -> int -> t
(** [create n] is an edge over nodes [0 .. n-1], all up, no partition,
    the shim off, the ledger at zero. [seed] seeds the shim's rng. *)

(** {1 Injected-fault view} *)

val crash : t -> node_id -> unit
(** Mark the node down. Envelopes in flight towards it (see
    {!note_in_flight}) move to [dropped], then the link's {!on_crash}
    reaction runs. *)

val recover : t -> node_id -> unit

val is_up : t -> node_id -> bool
(** [false] for a crashed node and for an id outside the edge. *)

val partition : t -> node_id list -> node_id list -> unit
(** Block all traffic between the two groups, both ways, until {!heal}. *)

val heal : t -> unit
(** Remove every partition. *)

val blocked : t -> node_id -> node_id -> bool
(** Whether a partition separates the pair (up or down alike). *)

val reachable : t -> node_id -> node_id -> bool
(** Both nodes up and no partition between them. *)

val on_crash : t -> (node_id -> unit) -> unit
(** Install the link's own reaction to {!crash}: the simulated network
    voids deliveries already scheduled, a socket endpoint severs its
    connections. Replaces any previous reaction. *)

(** {1 Seeded frame shim} *)

val set_frame_faults :
  t -> ?seed:int -> ?drop:float -> ?duplicate:float -> ?delay:float ->
  unit -> unit
(** Arm the shim: each remote envelope is independently dropped with
    probability [drop], duplicated with probability [duplicate], and
    delayed by an extra uniform [[0, delay]] seconds, per copy. All
    default to zero, so [set_frame_faults t ()] disarms it. [seed]
    reseeds the shim's rng, which nothing else draws from. *)

(** What the shim does to one remote envelope, with each copy's extra
    delay. *)
type fate = Lost | Once of Ksim.Time.t | Twice of Ksim.Time.t * Ksim.Time.t

val fate : t -> bytes:int -> fate
(** Roll the shim for one remote envelope of [bytes] bytes, in this
    order: drop, delay, duplicate, the copy's delay. A disarmed shim
    draws nothing. The ledger books the outcome: [Lost] as one dropped
    envelope, [Twice] as one more sent envelope of [bytes]. Local
    envelopes never reach the wire and are never rolled. *)

(** {1 Traffic ledger} *)

(** Traffic counters, one record for every link. On the simulated network
    they cover every node. A socket endpoint counts its own view:
    [delivered] is what arrived there, and [in_flight] is always 0, so
    the books balance per process pair, not per endpoint. *)
type stats = {
  sent : int;       (** envelopes handed to the wire *)
  delivered : int;  (** envelopes handed to the receiving node's RPC core *)
  dropped : int;    (** lost to a fault, the shim, loss or a dead socket *)
  in_flight : int;  (** scheduled but not yet delivered *)
  atoms : int;
      (** logical messages sent: each item of a batch envelope counts
          once, so [atoms >= sent] and the gap measures coalescing *)
  bytes_sent : int;
  by_kind : (string * int) list;
      (** logical messages sent, per kind, sorted; sums to [atoms] *)
}

val note_sent : t -> bytes:int -> string list -> unit
(** One envelope of [bytes] bytes carrying logical messages of the given
    kinds. *)

val note_delivered : t -> unit
val note_dropped : t -> unit

val note_in_flight : t -> node_id -> unit
(** An envelope is now scheduled to arrive at the node. *)

val note_landed : t -> node_id -> unit
(** A scheduled envelope reached its arrival time; the link then books it
    delivered or dropped. *)

val stats : t -> stats
(** [sent = delivered + dropped + in_flight] holds at all times on the
    simulated network, including across {!reset_stats}. It is over
    envelopes, not atoms. *)

val reset_stats : t -> unit
(** Zero the counters for a fresh window. Envelopes in flight at reset
    count as [sent] in the new window, so the invariant above keeps
    holding as they deliver or drop. *)
