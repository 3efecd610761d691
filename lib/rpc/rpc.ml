module Codec = Kutil.Codec

module type PROTOCOL = sig
  type request
  type response

  val encode_request : Codec.encoder -> request -> unit
  val encode_response : Codec.encoder -> response -> unit
  val request_kind : request -> string
end

type node_id = Knet.Topology.node_id

module Make (P : PROTOCOL) = struct
  module Msg = struct
    type t =
      | Request of { id : int; span : int; body : P.request }
      | Response of { id : int; body : P.response }
      | Oneway of { span : int; body : P.request }
      | Batch of { items : (int * P.request) list }

    (* The frame (layout in rpc.mli). Tags are wire format: renumbering
       breaks cross-version interop. *)

    let frame_prefix = 4

    let tag_request = 1
    and tag_response = 2
    and tag_oneway = 3
    and tag_batch = 4

    (* A named recursion, not [Codec.list] with a fresh closure: encoding
       a batch allocates nothing. *)
    let rec encode_items enc = function
      | [] -> ()
      | (span, body) :: rest ->
        Codec.int enc span;
        P.encode_request enc body;
        encode_items enc rest

    let encode_frame enc ~src msg =
      Codec.reset enc;
      Codec.u32 enc 0;
      (match msg with
       | Request { id; span; body } ->
         Codec.u8 enc tag_request;
         Codec.u32 enc src;
         Codec.int enc id;
         Codec.int enc span;
         P.encode_request enc body
       | Response { id; body } ->
         Codec.u8 enc tag_response;
         Codec.u32 enc src;
         Codec.int enc id;
         P.encode_response enc body
       | Oneway { span; body } ->
         Codec.u8 enc tag_oneway;
         Codec.u32 enc src;
         Codec.int enc span;
         P.encode_request enc body
       | Batch { items } ->
         Codec.u8 enc tag_batch;
         Codec.u32 enc src;
         Codec.u32 enc (List.length items);
         encode_items enc items);
      Codec.patch_u32 enc ~at:0 (Codec.length enc - frame_prefix)

    let payload_length buf off = Int32.to_int (Bytes.get_int32_be buf off)

    let payload_src buf ~off ~len =
      if len < 5 then None
      else Some (Int32.to_int (Bytes.get_int32_be buf (off + 1)))

    let decode_payload ~request ~response dec =
      let tag = Codec.read_u8 dec in
      let src = Codec.read_u32 dec in
      let msg =
        if tag = tag_request then
          let id = Codec.read_int dec in
          let span = Codec.read_int dec in
          Request { id; span; body = request dec }
        else if tag = tag_response then
          let id = Codec.read_int dec in
          Response { id; body = response dec }
        else if tag = tag_oneway then
          let span = Codec.read_int dec in
          Oneway { span; body = request dec }
        else if tag = tag_batch then
          Batch
            {
              items =
                Codec.read_list dec (fun () ->
                    let span = Codec.read_int dec in
                    (span, request dec));
            }
        else raise (Codec.Decode_error "Rpc: unknown frame tag")
      in
      (src, msg)

    (* The simulated link sizes every envelope by encoding its frame here.
       [src] is a fixed-width field, so any value gives the same length. *)
    let sizing = Codec.encoder ()

    let size_bytes msg =
      encode_frame sizing ~src:0 msg;
      Codec.length sizing

    let kind = function
      | Request { body; _ } -> P.request_kind body
      | Response _ -> "response"
      | Oneway { body; _ } -> P.request_kind body
      | Batch _ -> "rpc.batch"

    let kinds = function
      | Batch { items } -> List.map (fun (_, body) -> P.request_kind body) items
      | m -> [ kind m ]
  end

  module Net = Knet.Network.Make (Msg)

  type handler =
    src:node_id -> span:int -> P.request -> reply:(P.response -> unit) -> unit

  type link = {
    send : src:node_id -> dst:node_id -> Msg.t -> bool;
    topology : Knet.Topology.t;
    edge : Knet.Edge.t;
  }

  type t = {
    engine : Ksim.Engine.t;
    link : link;
    mutable next_id : int;
    pending : (int, P.response Ksim.Promise.t) Hashtbl.t;
    servers : handler option array;
    mutable coalescing : bool;
    (* Per-(src, dst) queues of oneways waiting for the end-of-tick flush,
       items in reverse send order. A key is present iff a flush for it is
       scheduled at the current instant. *)
    queues : (int * int, (int * P.request) list ref) Hashtbl.t;
  }

  let connect engine link =
    {
      engine;
      link;
      next_id = 0;
      pending = Hashtbl.create 64;
      servers = Array.make (Knet.Topology.node_count link.topology) None;
      coalescing = true;
      queues = Hashtbl.create 16;
    }

  let send t ~src ~dst msg = ignore (t.link.send ~src ~dst msg)

  let deliver t ~src ~dst msg =
    match (msg, t.servers.(dst)) with
    | Msg.Response { id; body }, _ -> (
      match Hashtbl.find_opt t.pending id with
      | None -> () (* late reply after timeout: drop *)
      | Some promise ->
        Hashtbl.remove t.pending id;
        ignore (Ksim.Promise.try_resolve promise body))
    | _, None ->
      (* A node with no server ignores whatever reaches it; the link has
         already counted the envelope delivered. *)
      ()
    | Msg.Request { id; span; body }, Some server ->
      server ~src ~span body ~reply:(fun resp ->
          send t ~src:dst ~dst:src (Msg.Response { id; body = resp }))
    | Msg.Oneway { span; body }, Some server ->
      server ~src ~span body ~reply:ignore
    | Msg.Batch { items }, Some server ->
      List.iter (fun (span, body) -> server ~src ~span body ~reply:ignore) items

  (* The simulated network never refuses a send — a frame to a crashed or
     partitioned node leaves and silently dies — so calls over this link
     only ever time out. *)
  let sim engine topology =
    let net = Net.create engine topology in
    let t =
      connect engine
        {
          send = (fun ~src ~dst msg -> Net.send net ~src ~dst msg; true);
          topology;
          edge = Net.edge net;
        }
    in
    List.iter
      (fun node ->
        Net.set_handler net node (fun ~src msg -> deliver t ~src ~dst:node msg))
      (Knet.Topology.nodes topology);
    (t, net)

  let create engine topology = fst (sim engine topology)

  let engine t = t.engine
  let topology t = t.link.topology
  let stats t = Knet.Edge.stats t.link.edge
  let reset_stats t = Knet.Edge.reset_stats t.link.edge
  let faults t = t.link.edge
  let set_server t node handler = t.servers.(node) <- Some handler

  let call t ~src ~dst ?(policy = Policy.default) ?(span = 0) request =
    let attempt_timeout = Policy.timeout_source policy in
    let rec attempt n =
      if n <= 0 then Error `Timeout
      else begin
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        let promise = Ksim.Promise.create () in
        Hashtbl.replace t.pending id promise;
        if not (t.link.send ~src ~dst (Msg.Request { id; span; body = request }))
        then begin
          (* The send itself failed: dead socket or refused dial. Don't
             burn a full reply window waiting for an answer that never
             left — pause briefly (the peer may be rebinding) and retry,
             or report the positive evidence if attempts are spent. *)
          Hashtbl.remove t.pending id;
          if n = 1 then Error `Unreachable
          else begin
            Ksim.Fiber.sleep (min (attempt_timeout ()) (Ksim.Time.ms 100));
            attempt (n - 1)
          end
        end
        else
          match
            Ksim.Fiber.await_timeout t.engine promise
              ~timeout:(attempt_timeout ())
          with
          | Some resp -> Ok resp
          | None ->
            Hashtbl.remove t.pending id;
            attempt (n - 1)
      end
    in
    if policy.Policy.attempts <= 0 then
      invalid_arg "Rpc.call: policy attempts must be positive";
    attempt policy.Policy.attempts

  let flush_queue t ~src ~dst =
    match Hashtbl.find_opt t.queues (src, dst) with
    | None -> ()
    | Some q ->
      Hashtbl.remove t.queues (src, dst);
      (match List.rev !q with
       | [] -> ()
       | [ (span, body) ] ->
         (* A batch of one gains nothing: send the plain envelope so the
            uncontended path is byte-identical to the uncoalesced one. *)
         send t ~src ~dst (Msg.Oneway { span; body })
       | items ->
         (if Ktrace.Trace.enabled () then
            (* Parent the batch event under the first traced item so E1/E3
               breakdowns can attribute the envelope saving to an op. *)
            match List.find_opt (fun (s, _) -> s <> 0) items with
            | Some (s, _) ->
              Ktrace.Trace.event ~engine:t.engine ~node:src
                ~span:(Ktrace.Trace.of_id s) "rpc.batch"
                ~attrs:
                  [ ("dst", string_of_int dst);
                    ("items", string_of_int (List.length items)) ]
            | None -> ());
         send t ~src ~dst (Msg.Batch { items }))

  let notify t ~src ~dst ?(span = 0) ?(coalesce = false) request =
    if coalesce && t.coalescing then begin
      match Hashtbl.find_opt t.queues (src, dst) with
      | Some q -> q := (span, request) :: !q
      | None ->
        Hashtbl.replace t.queues (src, dst) (ref [ (span, request) ]);
        (* ~after:0 = end of the current instant: every coalescable send
           to this destination issued while the current event cascade runs
           lands in the same envelope; the flush costs no time. *)
        ignore
          (Ksim.Engine.schedule t.engine ~after:0 (fun () ->
               flush_queue t ~src ~dst))
    end
    else send t ~src ~dst (Msg.Oneway { span; body = request })

  let set_coalescing t on =
    (* Draining on disable keeps the no-queued-message invariant trivial:
       a queue entry always has a scheduled flush, and a scheduled flush
       always finds its entry or an empty slot. *)
    if not on then
      List.iter
        (fun (src, dst) -> flush_queue t ~src ~dst)
        (Hashtbl.fold (fun k _ acc -> k :: acc) t.queues []);
    t.coalescing <- on

  let coalescing t = t.coalescing

  let pending_calls t = Hashtbl.length t.pending
end
