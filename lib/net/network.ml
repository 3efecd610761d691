module type MESSAGE = sig
  type t

  val size_bytes : t -> int
  val kind : t -> string
  val kinds : t -> string list
end

module Make (M : MESSAGE) = struct
  type handler = src:Topology.node_id -> M.t -> unit

  type t = {
    engine : Ksim.Engine.t;
    topology : Topology.t;
    rng : Kutil.Rng.t;
    handlers : handler option array;
    edge : Edge.t;
    (* A crash bumps the destination's epoch so the delivery callbacks
       already scheduled towards it know the edge has booked them dropped
       (and never leak a pre-crash message into a recovered node). *)
    node_epoch : int array;
    mutable trace :
      (Ksim.Time.t -> src:Topology.node_id -> dst:Topology.node_id -> M.t -> unit)
      option;
  }

  let create engine topology =
    let n = Topology.node_count topology in
    let edge = Edge.create n and node_epoch = Array.make n 0 in
    Edge.on_crash edge (fun node -> node_epoch.(node) <- node_epoch.(node) + 1);
    {
      engine;
      topology;
      rng = Kutil.Rng.split (Ksim.Engine.rng engine);
      handlers = Array.make n None;
      edge;
      node_epoch;
      trace = None;
    }

  let engine t = t.engine
  let topology t = t.topology
  let edge t = t.edge
  let set_handler t node h = t.handlers.(node) <- Some h

  let deliver t ~src ~dst msg =
    if Edge.is_up t.edge dst && not (Edge.blocked t.edge src dst) then begin
      match t.handlers.(dst) with
      | Some h ->
        Edge.note_delivered t.edge;
        h ~src msg
      | None -> Edge.note_dropped t.edge
    end
    else Edge.note_dropped t.edge

  let schedule_delivery t ~after ~src ~dst msg =
    let epoch = t.node_epoch.(dst) in
    Edge.note_in_flight t.edge dst;
    ignore
      (Ksim.Engine.schedule t.engine ~after (fun () ->
           if t.node_epoch.(dst) = epoch then begin
             Edge.note_landed t.edge dst;
             deliver t ~src ~dst msg
           end))

  (* A local send still goes through the scheduler (at a nominal IPC cost)
     so that handler re-entrancy never depends on whether a peer happens to
     be co-located. *)
  let local_delay = Ksim.Time.us 5

  let send t ~src ~dst msg =
    let edge = t.edge in
    if Edge.is_up edge src then begin
      let bytes = M.size_bytes msg in
      Edge.note_sent edge ~bytes (M.kinds msg);
      (match t.trace with
       | Some f -> f (Ksim.Engine.now t.engine) ~src ~dst msg
       | None -> ());
      if src = dst then
        schedule_delivery t ~after:local_delay ~src ~dst msg
      else if Edge.blocked edge src dst || not (Edge.is_up edge dst) then
        (* Unreachable at send time: the packet leaves but can never land. *)
        Edge.note_dropped edge
      else begin
        let profile = Topology.profile t.topology src dst in
        if profile.loss > 0.0 && Kutil.Rng.float t.rng 1.0 < profile.loss then
          Edge.note_dropped edge
        else begin
          let jitter =
            if profile.jitter > 0 then Kutil.Rng.int t.rng profile.jitter else 0
          in
          let serialisation =
            Ksim.Time.of_sec_f (float_of_int bytes /. profile.bandwidth_bps)
          in
          let delay = profile.base_latency + jitter + serialisation in
          match Edge.fate edge ~bytes with
          | Lost -> ()
          | Once extra -> schedule_delivery t ~after:(delay + extra) ~src ~dst msg
          | Twice (a, b) ->
            schedule_delivery t ~after:(delay + a) ~src ~dst msg;
            schedule_delivery t ~after:(delay + b) ~src ~dst msg
        end
      end
    end

  let set_trace t f = t.trace <- Some f
  let clear_trace t = t.trace <- None
end
