(** Request/response messaging: the one RPC core under every transport.

    Khazana daemons drive every protocol through this layer. It owns the
    envelope alphabet and its one frame format, call correlation,
    {!Policy} timeouts and retries, same-instant coalescing of one-way
    messages, and server dispatch. Retried requests give at-least-once
    execution: handlers must be idempotent or deduplicate, as the paper's
    own retry-until-success error handling requires.

    What moves envelopes is a {!Make.link}: a [send] closure and the
    link's {!Knet.Edge.t}. The core hands a link each outgoing envelope
    with [send]; on arrival the link calls {!Make.deliver}. The edge is
    where every link injects faults, rolls its frame shim and counts its
    traffic, so both links do those the same way. {!Make.sim} links the
    core to the simulated {!Knet.Network}. [Ktransport.Transport_unix]
    links it to the same frames ({!Make.Msg.encode_frame}) over
    Unix-domain sockets.

    Both links count an envelope as the length of its encoded frame: the
    socket link writes that frame, the simulated link encodes it only to
    measure it and charges the bytes as bandwidth delay. So one envelope
    costs the same bytes on either link, traced or not.

    One-way messages marked coalescable are not sent immediately: they sit
    in a per-(source, destination) queue until the end of the current
    engine instant, then travel as one {!Make.Msg.t.Batch} envelope. A home
    invalidating N pages at one sharer in a single event cascade therefore
    pays one envelope, not N. *)

(** The user-supplied wire protocol: one request and one response type,
    their byte encoders ({!Kutil.Codec}), and a kind label for the
    traffic counters. A link that also receives bytes needs the decoders
    too ([Ktransport.Transport.WIRE]). *)
module type PROTOCOL = sig
  type request
  type response

  val encode_request : Kutil.Codec.encoder -> request -> unit
  val encode_response : Kutil.Codec.encoder -> response -> unit

  val request_kind : request -> string
  (** Short label for per-kind traffic counters ({!Knet.Network}). *)
end

type node_id = Knet.Topology.node_id

module Make (P : PROTOCOL) : sig
  module Msg : sig
    type t =
      | Request of { id : int; span : int; body : P.request }
      | Response of { id : int; body : P.response }
      | Oneway of { span : int; body : P.request }
          (** [span] is the sender's enclosing {!Ktrace} span id (0 when
              untraced); receivers parent their dispatch spans under it so a
              multi-hop operation forms one causally-linked trace. *)
      | Batch of { items : (int * P.request) list }
          (** Same-tick one-way messages to one destination coalesced into
              a single envelope; each item keeps its own [(span, body)]
              pair and is dispatched to the server exactly as a separate
              [Oneway] would have been. *)

    val size_bytes : t -> int
    (** Length of the envelope's frame ({!encode_frame}), prefix included:
        what either link counts for it. Encodes into one encoder kept for
        the purpose. *)

    val kind : t -> string
    (** Envelope-level label ("rpc.batch" for batches). *)

    val kinds : t -> string list
    (** Per-logical-message labels; see {!Knet.Network.MESSAGE.kinds}. *)

    (** {2 The frame}

        [[u32 payload length]] (big-endian) then the payload, which opens
        with [[u8 tag][u32 src]] and continues by tag:
        - 1 [Request]: [[int id][int span][request]]
        - 2 [Response]: [[int id][response]]
        - 3 [Oneway]: [[int span][request]]
        - 4 [Batch]: [[u32 count]], then [[int span][request]] per item.

        Fields are {!Kutil.Codec} encodings; [span] is always present
        (0 when untraced). *)

    val frame_prefix : int
    (** Bytes of the length prefix before the payload (4). *)

    val encode_frame : Kutil.Codec.encoder -> src:node_id -> t -> unit
    (** Reset the encoder and write one whole frame from [src] into it:
        the frame is the encoder's first {!Kutil.Codec.length} bytes.
        The framing itself allocates nothing. *)

    val payload_length : bytes -> int -> int
    (** The payload length a frame's prefix at that offset declares; a
        negative value marks a corrupt stream. *)

    val payload_src : bytes -> off:int -> len:int -> node_id option
    (** The sender named by the [len]-byte payload at [off], read without
        decoding it; [None] when the payload is too short to name one. *)

    val decode_payload :
      request:(Kutil.Codec.decoder -> P.request) ->
      response:(Kutil.Codec.decoder -> P.response) ->
      Kutil.Codec.decoder -> node_id * t
    (** The sender and envelope of one payload (the frame after its
        prefix), bodies read with [request] and [response].
        @raise Kutil.Codec.Decode_error on a malformed payload. *)
  end

  module Net : module type of Knet.Network.Make (Msg)

  type handler =
    src:node_id -> span:int -> P.request -> reply:(P.response -> unit) -> unit
  (** A node's server. [span] is the caller's trace span id (0 untraced).
      The handler may reply immediately, capture [reply] and call it later
      from a fiber, or never reply (the caller then times out). *)

  (** What carries envelopes between nodes.

      [send ~src ~dst msg] puts one envelope on its way, or reports that it
      could not: [false] is positive evidence that [dst] is unreachable
      right now (a dead socket, a refused dial, an injected fault that
      filtered the envelope at send time). A call whose last attempt's
      send returns [false] fails with [`Unreachable]. A loss the sender
      cannot see (a simulated drop, a frame lost in flight) returns [true]
      and reads as silence. Whatever arrives at a node is passed to
      {!deliver}, from inside an engine event. [edge] is the link's fault
      view, frame shim and traffic ledger; the link consults it on every
      envelope it moves. *)
  type link = {
    send : src:node_id -> dst:node_id -> Msg.t -> bool;
    topology : Knet.Topology.t;
    edge : Knet.Edge.t;
  }

  type t

  val connect : Ksim.Engine.t -> link -> t
  (** A core over [link]; its calls, timers and flushes run on [engine].
      Servers are installed separately with {!set_server}. *)

  val deliver : t -> src:node_id -> dst:node_id -> Msg.t -> unit
  (** Hand an arrived envelope to the core: a response resolves its
      pending call; a request, oneway or batch item runs [dst]'s server.
      An envelope reaching a node with no server is ignored. *)

  val sim : Ksim.Engine.t -> Knet.Topology.t -> t * Net.t
  (** A core over a fresh simulated network, whose [send] always returns
      [true]: simulated calls time out but are never [`Unreachable]. The
      network is returned for harnesses that need its trace tap. *)

  val create : Ksim.Engine.t -> Knet.Topology.t -> t
  (** [fst (sim engine topology)]. *)

  val engine : t -> Ksim.Engine.t
  val topology : t -> Knet.Topology.t
  val stats : t -> Knet.Edge.stats
  (** The link's traffic ledger: {!Knet.Edge.stats} of its edge. *)

  val reset_stats : t -> unit

  val faults : t -> Knet.Edge.t
  (** The link's edge, where crashes, partitions and frame faults are
      injected. On the simulated link it is the global network state; on a
      socket endpoint it is that endpoint's local view. *)

  val set_server : t -> node_id -> handler -> unit
  (** Install (or replace) a node's request handler. *)

  val call :
    t ->
    src:node_id ->
    dst:node_id ->
    ?policy:Policy.t ->
    ?span:int ->
    P.request ->
    (P.response, [ `Timeout | `Unreachable ]) result
  (** Fiber-blocking remote call governed by [policy] (default
      {!Policy.default}: one attempt, 1 s timeout): the request is resent
      up to [policy.attempts] times, each attempt waiting for the policy's
      next per-attempt timeout. [`Timeout] is silence: every attempt's
      reply window elapsed. When the link refuses a send, the attempt
      pauses for [min timeout 100 ms] instead of a full window, and the
      last attempt's refusal returns [`Unreachable]. [span] rides in the
      envelope so the callee can link its work into the caller's trace. *)

  val notify :
    t -> src:node_id -> dst:node_id -> ?span:int -> ?coalesce:bool ->
    P.request -> unit
  (** One-way message: no response, no retry. With [~coalesce:true]
      (default false) the message is queued and flushed at the end of the
      current engine instant, sharing a {!Msg.t.Batch} envelope with every
      other coalescable same-tick message from [src] to [dst]; the flush
      emits an "rpc.batch" {!Ktrace} event when it merged two or more, and
      sends a lone message as a plain [Oneway]. The link's loss decisions
      apply to the whole envelope at flush time. *)

  val set_coalescing : t -> bool -> unit
  (** Enable/disable batching of [~coalesce:true] notifies (default
      enabled). Disabling flushes any queued messages first; benches use
      this to measure the uncoalesced baseline. *)

  val coalescing : t -> bool
  (** Whether coalescing is currently enabled. *)

  val pending_calls : t -> int
  (** Outstanding requests (diagnostics). *)
end
