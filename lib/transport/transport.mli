(** The transport seam: the network API Khazana daemons program against.

    Daemon, client and service code never names a concrete link. It holds
    a [Make (P).t], which is the {!Krpc.Rpc} core itself: request/response
    {!Krpc.Rpc.Make.call} with a retry {!Krpc.Policy}, one-way
    {!Krpc.Rpc.Make.notify} with optional same-instant coalescing, a
    server handler per node, and its link's {!Knet.Edge.t}: traffic
    {!stats} and failure injection ([faults], on every link).

    Two links carry the core's envelopes, both in the core's one frame
    format ({!Krpc.Rpc.Make.Msg.encode_frame}) and both counting an
    envelope as that frame's length. Each moves envelopes its own way and
    injects, shims and counts through its edge:
    - {!Krpc.Rpc.Make.sim}: the deterministic simulated network
      ({!Knet.Network}), every node sharing one virtual clock and one
      edge; injection edits global network state.
    - {!Transport_unix}: length-prefixed frames over Unix-domain sockets,
      one endpoint (and one {!Ksim.Engine.t} scheduler, driven against
      the wall clock) per OS process, each with its own edge; injection
      edits that endpoint's local view, and {e genuine} failures (a dead
      peer, a refused dial) also surface as [`Unreachable] calls.

    The scheduling dependency is explicit: every transport exposes the
    {!Ksim.Engine.t} its fibers and timers run on. Under simulation that
    engine is shared by the whole system and time is virtual; over sockets
    each process owns one and its clock tracks real elapsed time, so the
    same fiber-blocking daemon code runs unchanged. *)

type stats = Knet.Edge.stats
(** Traffic counters, one record for every link. *)

(** What a socket link needs: a protocol whose bodies also decode. The
    encoders are already the core's ({!Krpc.Rpc.PROTOCOL}); a [WIRE]
    adds the two decoders. *)
module type WIRE = sig
  include Krpc.Rpc.PROTOCOL

  val decode_request : Kutil.Codec.decoder -> request
  val decode_response : Kutil.Codec.decoder -> response
end

module Make = Krpc.Rpc.Make
(** The RPC core: [Make (P).t] is what daemons hold, whichever link is
    under it. *)
