(** The socket link under the {!Krpc.Rpc} core: length-prefixed frames
    over Unix-domain sockets, one endpoint per OS process.

    Each endpoint owns a listening socket ([<dir>/node-<id>.sock]), lazily
    opened outgoing connections to peers, and a private {!Ksim.Engine.t}
    whose virtual clock is driven to track real elapsed time — so the same
    fiber-blocking daemon code that runs under simulation runs here with
    real-time semantics. The frames are the core's
    ({!Krpc.Rpc.Make.Msg.encode_frame}: a 4-byte length prefix, then one
    envelope), encoded into one encoder per endpoint and decoded in place
    from each connection's receive buffer; the simulated link counts the
    same frame lengths. Correlation, retries, coalescing, dispatch and the
    frame layout are the core's; this module only moves frames.

    Two kinds of failure coexist on this link. {e Genuine} failures —
    a peer process that died, a refused dial, a dead socket mid-write —
    surface as evicted connections, [dropped] frames and [`Unreachable]
    calls, with re-dials paced by {!Kutil.Backoff} on a stream of their
    own. {e Injected} failures go through the endpoint's own
    {!Knet.Edge.t}, the core's [faults]: frames to or from a "crashed"
    node, or across a declared partition, are discarded at this endpoint,
    an injected crash also severs the connections it names, and the
    edge's seeded shim drops, delays or duplicates frames bound for
    peers (never a self-send). Traffic counters are the edge's ledger.
    Single-process harnesses that apply the same fault calls to every
    endpoint recover the simulated network's global semantics, so one
    conformance suite drives both links. *)

module Make (W : Transport.WIRE) : sig
  type t
  (** One process's endpoint. *)

  val create : ?seed:int -> dir:string -> id:Knet.Topology.node_id ->
    Knet.Topology.t -> t
  (** Bind [<dir>/node-<id>.sock] and build the endpoint with a fresh
      engine (rng seeded [seed + id], default seed 42). Ignores SIGPIPE
      process-wide: a peer that died mid-write must surface as an error on
      the write, not kill us. Connections to peers open lazily on first
      send; a never-yet-answering peer whose socket does not exist yet is
      awaited for a start-up grace period, while a socket that refuses the
      connection (its process died) and a peer that vanished after first
      contact fail fast and are re-dialed under exponential backoff. *)

  val pack : t -> Transport.Make(W).t
  (** The RPC core over this endpoint: what the local daemon holds. It
      sends only from, and serves only, the local node. *)

  val id : t -> Knet.Topology.node_id
  val engine : t -> Ksim.Engine.t

  val pump : ?max_wait:float -> t -> unit
  (** One scheduler-and-sockets turn: run engine events due by the wall
      clock, select on the sockets for at most [max_wait] seconds (bounded
      tighter by the engine's next timer), decode complete frames in place
      from each connection's receive buffer (delivering each from inside
      an engine event), and run the engine
      again. A daemon process's main loop is [while running do pump t done]. *)

  val run_fiber : ?others:t list -> ?name:string -> t -> (unit -> 'a) -> 'a
  (** Spawn a fiber on the endpoint's engine and pump until it completes,
      returning as soon as it does (it never waits in select once the
      fiber is done). [others] are sibling endpoints in the same process (single-process
      harnesses, e.g. the conformance suite) that must be pumped too or the
      conversation deadlocks. Liveness comes from call policies' timeouts:
      real time keeps flowing, there is no quiescence detection. *)

  val close : t -> unit
  (** Close all sockets and unlink the listening path. Idempotent. *)

  (** {1 Fault injection}

      Crashes, partitions and frame faults are set through the core's
      [faults] (this endpoint's edge). The operation below is this link's
      extra. *)

  val sever : t -> Knet.Topology.node_id -> unit
  (** Tear down every live connection shared with the peer — the cached
      outgoing socket and any accepted connection the peer speaks on — as
      if the TCP-level link died. Subsequent sends re-dial; the peer is
      {e not} marked down, so a rebound peer is reached again. *)
end
