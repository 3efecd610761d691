(** Inter-daemon wire protocol.

    Everything Khazana nodes say to each other travels as one of these
    requests over the {!Ktransport.Transport} seam. Consistency-manager
    traffic ([Cm_msg]) is one-way; the rest follow request/response. The
    protocol is a full {!Ktransport.Transport.WIRE}: it round-trips
    through {!Kutil.Codec} bytes, so the same daemon runs over the
    simulated network or real sockets. *)

module Gaddr = Kutil.Gaddr
module Ctypes = Kconsistency.Types
module Codec = Kutil.Codec

type request =
  | Cm_msg of { page : Gaddr.t; region_base : Gaddr.t; body : Ctypes.msg }
      (** Consistency protocol traffic for one page. [region_base] lets the
          receiver resolve the region (and thus protocol/home) lazily. *)
  | Get_descriptor of { addr : Gaddr.t }
      (** Ask a node for the descriptor of the region containing [addr];
          answered from its homed table or its region directory. *)
  | Alloc_region of { desc : Region.t }
      (** Sent to the region's home: allocate backing storage. *)
  | Free_region of { base : Gaddr.t }
      (** Sent to the region's home: release backing storage. *)
  | Unreserve_region of { base : Gaddr.t }
      (** Sent to the region's home: forget the descriptor. *)
  | Set_attr of { base : Gaddr.t; attr : Attr.t }
  | Chunk_request
      (** Node -> cluster manager: grant me a fresh 1 GiB chunk of
          unreserved address space to manage locally. *)
  | Cluster_lookup of { addr : Gaddr.t }
      (** Node -> cluster manager: is this region cached nearby? *)
  | Cluster_walk of { addr : Gaddr.t }
      (** Cluster manager -> peer cluster managers: the paper's fallback
          when the address map is stale or unreachable — "the region can
          still be located using a cluster-walk algorithm". Answered from
          local hints only; never forwarded further. *)
  | Cluster_report of { regions : Region.t list; free_bytes : int }
      (** One-way hint refresh: regions this node caches/homes, free pool.
          Doubles as the failure detector's heartbeat. Each entry is
          encoded as its base, then the whole descriptor (which repeats
          the base). *)
  | Suspect_hint of { cluster : int; suspects : Knet.Topology.node_id list }
      (** One-way, cluster manager -> members and peer managers: the
          manager's current suspicion list for its cluster (nodes whose
          heartbeats went stale). A wholesale view, not a delta; a
          receiving manager relays it to its own members. *)
  | Page_pull of { page : Gaddr.t }
      (** Recovering home -> recorded sharer: "send me your copy of this
          page, if you still hold a protocol-valid one". Used by the repair
          loop to reconcile a possibly-stale disk image with live replicas
          before re-serving the page — a valid remote copy can never be
          older than the crashed home's disk. *)
  | Page_probe of { page : Gaddr.t }
      (** Home -> recorded holder: "do you still hold a protocol-valid
          copy?". The repair loop uses it to unmask phantom holders — nodes
          that crashed (losing their copy) and recovered before the home
          rebuilt its books — which would otherwise count toward the
          replica floor forever. *)
  | Ping
  | Tx_prepare of { gtx : Kutil.Txid.t; pages : (Gaddr.t * bytes) list }
      (** 2PC phase one, coordinator -> participant home: force the page
          images under a prepared WAL transaction and vote. Idempotent: a
          participant that already prepared or decided [gtx] re-votes yes
          without re-logging. *)
  | Tx_decide of {
      gtx : Kutil.Txid.t;
      commit : bool;
      flushed : (Gaddr.t * int) list;
    }
      (** 2PC phase two, coordinator -> participant: apply or drop the
          prepared images. [flushed] is the write-through riding the
          decision: the CREW pages whose committed image the participant
          already holds from the prepare, each with the protocol version
          the coordinator's lock release gave it. The home absorbs them as
          {!Page_flush} would, with no second message, and drops an image
          a newer write has overtaken. The coordinator logs these versions
          with its decision, so a re-sent decision carries the same list
          as the first. Idempotent: a duplicate decision (or one for an
          unknown, already-forgotten transaction) acks as a no-op. *)
  | Tx_status of { gtx : Kutil.Txid.t }
      (** In-doubt participant -> coordinator: what became of [gtx]?
          A commit answers {!Tx_committed} with the asking participant's
          write-through versions, the [flushed] list its decide carries.
          Presumed abort — a coordinator with no record of the decision
          answers aborted, unless the transaction is still in its voting
          window. *)
  | Page_flush of
      { page : Gaddr.t; region_base : Gaddr.t; data : bytes; version : int }
      (** Writer -> region home: write-through of a freshly written page
          image under strict consistency. The home logs and installs the
          image (keeping its manager backup as fresh as every acknowledged
          write) before acking; the writer acks its client only after the
          flush, so an owner crash can no longer swallow an acknowledged
          write. Sent by [write_sync], and by a 2PC coordinator only when
          the {!Tx_decide} that carries its write-through failed.
          Idempotent — the home keeps the freshest version. *)
  | Page_diff of {
      page : Gaddr.t;
      region_base : Gaddr.t;
      parent : int;
      expected : int option;
      payload : Ctypes.publish_payload;
    }
      (** Writer -> region home (versioned CM): publish a new immutable
          page version. [payload] is the runs of bytes that differ from
          the retained image of [parent], or a whole image when they were
          dense (or the parent fell past the home's GC watermark —
          [Parent_gone] tells the writer to resend whole). [expected] is
          the optional per-page CAS: publish only if the home's latest
          version still equals it. Answered with {!R_publish}. *)
  | Page_version of { page : Gaddr.t; region_base : Gaddr.t; at : int option }
      (** Snapshot reader -> region home (versioned CM): the image of the
          page at version [at] ([None] = latest settled). Answered with
          {!R_page}: [None] means the version fell past the GC watermark
          (the snapshot expired) or the page is unknown. *)

type tx_state =
  | Tx_committed of (Gaddr.t * int) list
      (** The asker's [(page, version)] write-through, as in
          {!request.Tx_decide}. *)
  | Tx_aborted
  | Tx_in_progress

type response =
  | R_unit
  | R_descriptor of Region.t option
  | R_page of (bytes * int) option
      (** The sharer's valid copy and its protocol version, or [None]. *)
  | R_held of bool
  | R_chunk of { base : Gaddr.t; len : int }
  | R_lookup of { desc : Region.t option; holders : Knet.Topology.node_id list }
  | R_error of string
  | R_tx_vote of bool
      (** Participant's phase-one vote: [true] = prepared, will commit on
          decision. *)
  | R_tx_status of tx_state
  | R_publish of Ctypes.publish_result
      (** Outcome of a {!request.Page_diff} publish at the home. *)

let request_kind = function
  | Cm_msg { body; _ } -> Ctypes.msg_kind body
  | Get_descriptor _ -> "get_descriptor"
  | Alloc_region _ -> "alloc_region"
  | Free_region _ -> "free_region"
  | Unreserve_region _ -> "unreserve_region"
  | Set_attr _ -> "set_attr"
  | Chunk_request -> "chunk_request"
  | Cluster_lookup _ -> "cluster_lookup"
  | Cluster_walk _ -> "cluster_walk"
  | Cluster_report _ -> "cluster_report"
  | Suspect_hint _ -> "suspect_hint"
  | Page_pull _ -> "page_pull"
  | Page_probe _ -> "page_probe"
  | Ping -> "ping"
  | Tx_prepare _ -> "tx_prepare"
  | Tx_decide _ -> "tx_decide"
  | Tx_status _ -> "tx_status"
  | Page_flush _ -> "page_flush"
  | Page_diff _ -> "page_diff"
  | Page_version _ -> "page_version"

(* ---------------- byte codecs ---------------- *)

(* Tags are wire format; renumbering breaks cross-version interop. *)

(* A decision's write-through, in a decide and in a status answer. *)
let encode_flushed enc flushed =
  Codec.list enc
    (fun (page, version) ->
      Codec.u128 enc page;
      Codec.int enc version)
    flushed

let decode_flushed dec =
  Codec.read_list dec (fun () ->
      let page = Codec.read_u128 dec in
      (page, Codec.read_int dec))

let encode_request enc req =
  match req with
  | Cm_msg { page; region_base; body } ->
    Codec.u8 enc 0;
    Codec.u128 enc page;
    Codec.u128 enc region_base;
    Ctypes.encode_msg enc body
  | Get_descriptor { addr } ->
    Codec.u8 enc 1;
    Codec.u128 enc addr
  | Alloc_region { desc } ->
    Codec.u8 enc 2;
    Region.encode enc desc
  | Free_region { base } ->
    Codec.u8 enc 3;
    Codec.u128 enc base
  | Unreserve_region { base } ->
    Codec.u8 enc 4;
    Codec.u128 enc base
  | Set_attr { base; attr } ->
    Codec.u8 enc 5;
    Codec.u128 enc base;
    Attr.encode enc attr
  | Chunk_request -> Codec.u8 enc 6
  | Cluster_lookup { addr } ->
    Codec.u8 enc 7;
    Codec.u128 enc addr
  | Cluster_walk { addr } ->
    Codec.u8 enc 8;
    Codec.u128 enc addr
  | Cluster_report { regions; free_bytes } ->
    Codec.u8 enc 9;
    Codec.list enc
      (fun desc ->
        Codec.u128 enc desc.Region.base;
        Region.encode enc desc)
      regions;
    Codec.int enc free_bytes
  | Suspect_hint { cluster; suspects } ->
    Codec.u8 enc 10;
    Codec.int enc cluster;
    Codec.list enc (Codec.u32 enc) suspects
  | Page_pull { page } ->
    Codec.u8 enc 11;
    Codec.u128 enc page
  | Page_probe { page } ->
    Codec.u8 enc 12;
    Codec.u128 enc page
  | Ping -> Codec.u8 enc 13
  | Tx_prepare { gtx; pages } ->
    Codec.u8 enc 14;
    Kutil.Txid.encode enc gtx;
    Codec.list enc
      (fun (page, img) ->
        Codec.u128 enc page;
        Codec.bytes enc img)
      pages
  | Tx_decide { gtx; commit; flushed } ->
    Codec.u8 enc 15;
    Kutil.Txid.encode enc gtx;
    Codec.bool enc commit;
    encode_flushed enc flushed
  | Tx_status { gtx } ->
    Codec.u8 enc 16;
    Kutil.Txid.encode enc gtx
  | Page_flush { page; region_base; data; version } ->
    Codec.u8 enc 17;
    Codec.u128 enc page;
    Codec.u128 enc region_base;
    Codec.bytes enc data;
    Codec.int enc version
  | Page_diff { page; region_base; parent; expected; payload } ->
    Codec.u8 enc 18;
    Codec.u128 enc page;
    Codec.u128 enc region_base;
    Codec.int enc parent;
    Codec.option enc (Codec.int enc) expected;
    Ctypes.encode_publish_payload enc payload
  | Page_version { page; region_base; at } ->
    Codec.u8 enc 19;
    Codec.u128 enc page;
    Codec.u128 enc region_base;
    Codec.option enc (Codec.int enc) at

let decode_request dec =
  match Codec.read_u8 dec with
  | 0 ->
    let page = Codec.read_u128 dec in
    let region_base = Codec.read_u128 dec in
    Cm_msg { page; region_base; body = Ctypes.decode_msg dec }
  | 1 -> Get_descriptor { addr = Codec.read_u128 dec }
  | 2 -> Alloc_region { desc = Region.decode dec }
  | 3 -> Free_region { base = Codec.read_u128 dec }
  | 4 -> Unreserve_region { base = Codec.read_u128 dec }
  | 5 ->
    let base = Codec.read_u128 dec in
    Set_attr { base; attr = Attr.decode dec }
  | 6 -> Chunk_request
  | 7 -> Cluster_lookup { addr = Codec.read_u128 dec }
  | 8 -> Cluster_walk { addr = Codec.read_u128 dec }
  | 9 ->
    let regions =
      Codec.read_list dec (fun () ->
          ignore (Codec.read_u128 dec);
          Region.decode dec)
    in
    Cluster_report { regions; free_bytes = Codec.read_int dec }
  | 10 ->
    let cluster = Codec.read_int dec in
    Suspect_hint { cluster; suspects = Codec.read_list dec (fun () -> Codec.read_u32 dec) }
  | 11 -> Page_pull { page = Codec.read_u128 dec }
  | 12 -> Page_probe { page = Codec.read_u128 dec }
  | 13 -> Ping
  | 14 ->
    let gtx = Kutil.Txid.decode dec in
    let pages =
      Codec.read_list dec (fun () ->
          let page = Codec.read_u128 dec in
          (page, Codec.read_bytes dec))
    in
    Tx_prepare { gtx; pages }
  | 15 ->
    let gtx = Kutil.Txid.decode dec in
    let commit = Codec.read_bool dec in
    Tx_decide { gtx; commit; flushed = decode_flushed dec }
  | 16 -> Tx_status { gtx = Kutil.Txid.decode dec }
  | 17 ->
    let page = Codec.read_u128 dec in
    let region_base = Codec.read_u128 dec in
    let data = Codec.read_bytes dec in
    Page_flush { page; region_base; data; version = Codec.read_int dec }
  | 18 ->
    let page = Codec.read_u128 dec in
    let region_base = Codec.read_u128 dec in
    let parent = Codec.read_int dec in
    let expected = Codec.read_option dec (fun () -> Codec.read_int dec) in
    Page_diff
      { page; region_base; parent; expected;
        payload = Ctypes.decode_publish_payload dec }
  | 19 ->
    let page = Codec.read_u128 dec in
    let region_base = Codec.read_u128 dec in
    Page_version
      { page; region_base;
        at = Codec.read_option dec (fun () -> Codec.read_int dec) }
  | n -> raise (Codec.Decode_error (Printf.sprintf "Wire.request: tag %d" n))

let encode_response enc resp =
  match resp with
  | R_unit -> Codec.u8 enc 0
  | R_descriptor d ->
    Codec.u8 enc 1;
    Codec.option enc (Region.encode enc) d
  | R_page p ->
    Codec.u8 enc 2;
    Codec.option enc
      (fun (data, version) ->
        Codec.bytes enc data;
        Codec.int enc version)
      p
  | R_held b ->
    Codec.u8 enc 3;
    Codec.bool enc b
  | R_chunk { base; len } ->
    Codec.u8 enc 4;
    Codec.u128 enc base;
    Codec.int enc len
  | R_lookup { desc; holders } ->
    Codec.u8 enc 5;
    Codec.option enc (Region.encode enc) desc;
    Codec.list enc (Codec.u32 enc) holders
  | R_error s ->
    Codec.u8 enc 6;
    Codec.string enc s
  | R_tx_vote ok ->
    Codec.u8 enc 7;
    Codec.bool enc ok
  | R_tx_status st -> (
    Codec.u8 enc 8;
    match st with
    | Tx_committed flushed ->
      Codec.u8 enc 0;
      encode_flushed enc flushed
    | Tx_aborted -> Codec.u8 enc 1
    | Tx_in_progress -> Codec.u8 enc 2)
  | R_publish r ->
    Codec.u8 enc 9;
    Ctypes.encode_publish_result enc r

let decode_response dec =
  match Codec.read_u8 dec with
  | 0 -> R_unit
  | 1 -> R_descriptor (Codec.read_option dec (fun () -> Region.decode dec))
  | 2 ->
    R_page
      (Codec.read_option dec (fun () ->
           let data = Codec.read_bytes dec in
           (data, Codec.read_int dec)))
  | 3 -> R_held (Codec.read_bool dec)
  | 4 ->
    let base = Codec.read_u128 dec in
    R_chunk { base; len = Codec.read_int dec }
  | 5 ->
    let desc = Codec.read_option dec (fun () -> Region.decode dec) in
    R_lookup { desc; holders = Codec.read_list dec (fun () -> Codec.read_u32 dec) }
  | 6 -> R_error (Codec.read_string dec)
  | 7 -> R_tx_vote (Codec.read_bool dec)
  | 8 ->
    R_tx_status
      (match Codec.read_u8 dec with
      | 0 -> Tx_committed (decode_flushed dec)
      | 1 -> Tx_aborted
      | 2 -> Tx_in_progress
      | n -> raise (Codec.Decode_error (Printf.sprintf "Wire.tx_state: %d" n)))
  | 9 -> R_publish (Ctypes.decode_publish_result dec)
  | n -> raise (Codec.Decode_error (Printf.sprintf "Wire.response: tag %d" n))

(* ---------------- the transport seam, instantiated ----------------

   [P] must stay a named module path: [Sockets.pack] returns
   [Ktransport.Transport.Make (P).t], which OCaml's applicative functors
   then make the very type [Transport.t] below. *)

module P = struct
  type nonrec request = request
  type nonrec response = response

  let request_kind = request_kind
  let encode_request = encode_request
  let decode_request = decode_request
  let encode_response = encode_response
  let decode_response = decode_response
end

module Transport = Ktransport.Transport.Make (P)
(** What daemons hold: the RPC core, over whichever link.
    [Transport.sim] builds it over the simulated network. *)

module Sockets = Ktransport.Transport_unix.Make (P)
(** The socket link: frames over Unix-domain sockets. *)

module Policy = Krpc.Policy
