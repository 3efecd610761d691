module type PROTOCOL = sig
  type request
  type response

  val request_size : request -> int
  val response_size : response -> int
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

    let header_size = 16

    (* A non-null trace span id adds one correlation word to the envelope;
       untraced traffic is byte-identical to the pre-tracing protocol. *)
    let span_size span = if span = 0 then 0 else 8

    (* Batched items share one envelope header and pay a small per-item
       length prefix instead: coalescing N messages saves
       (N-1) * (header_size - item_header) bytes on top of the N-1 saved
       envelopes. *)
    let item_header = 4

    let size_bytes = function
      | Request { span; body; _ } ->
        header_size + span_size span + P.request_size body
      | Response { body; _ } -> header_size + P.response_size body
      | Oneway { span; body } ->
        header_size + span_size span + P.request_size body
      | Batch { items } ->
        List.fold_left
          (fun acc (span, body) ->
            acc + item_header + span_size span + P.request_size body)
          header_size items

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
