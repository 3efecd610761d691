module type MESSAGE = sig
  type t

  val size_bytes : t -> int
  val kind : t -> string
  val kinds : t -> string list
end

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
  atoms : int;
  bytes_sent : int;
  by_kind : (string * int) list;
}

module Make (M : MESSAGE) = struct
  type handler = src:Topology.node_id -> M.t -> unit

  type t = {
    engine : Ksim.Engine.t;
    topology : Topology.t;
    rng : Kutil.Rng.t;
    handlers : handler option array;
    up : bool array;
    (* Messages scheduled but not yet delivered, per destination. A crash
       folds the destination's count into [dropped] and bumps its epoch so
       the stale delivery callbacks know not to double-account (or leak a
       pre-crash message into a recovered node). *)
    inflight : int array;
    node_epoch : int array;
    mutable partitions : (int array * int array) list;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    (* [reset_stats] does not zero the raw counters (that would break the
       sent = delivered + dropped + in_flight conservation when traffic is
       in flight at reset time); it snapshots baselines that [stats]
       subtracts. [base_sent] is set to delivered + dropped at reset, so
       messages in flight across the reset count as sent in the new window
       and their eventual delivery/drop balances the books. *)
    mutable base_sent : int;
    mutable base_delivered : int;
    mutable base_dropped : int;
    mutable atoms : int;
    mutable bytes_sent : int;
    by_kind : (string, int) Hashtbl.t;
    mutable trace :
      (Ksim.Time.t -> src:Topology.node_id -> dst:Topology.node_id -> M.t -> unit)
      option;
    (* Seeded frame-level fault shim, mirroring Transport_unix's: each
       remote envelope independently dropped/duplicated/delayed. Off by
       default; draws only from its private rng so arming it never
       perturbs the engine's seeded draw sequence. *)
    mutable ff_drop : float;
    mutable ff_duplicate : float;
    mutable ff_delay : float;
    mutable frng : Kutil.Rng.t;
  }

  let create engine topology =
    let n = Topology.node_count topology in
    {
      engine;
      topology;
      rng = Kutil.Rng.split (Ksim.Engine.rng engine);
      handlers = Array.make n None;
      up = Array.make n true;
      inflight = Array.make n 0;
      node_epoch = Array.make n 0;
      partitions = [];
      sent = 0;
      delivered = 0;
      dropped = 0;
      base_sent = 0;
      base_delivered = 0;
      base_dropped = 0;
      atoms = 0;
      bytes_sent = 0;
      by_kind = Hashtbl.create 32;
      trace = None;
      ff_drop = 0.0;
      ff_duplicate = 0.0;
      ff_delay = 0.0;
      frng = Kutil.Rng.create ~seed:0x66726d;
    }

  let engine t = t.engine
  let topology t = t.topology

  let check_node t n =
    if n < 0 || n >= Array.length t.up then invalid_arg "Network: bad node id"

  let set_handler t node h =
    check_node t node;
    t.handlers.(node) <- Some h

  let crash t node =
    check_node t node;
    t.up.(node) <- false;
    t.dropped <- t.dropped + t.inflight.(node);
    t.inflight.(node) <- 0;
    t.node_epoch.(node) <- t.node_epoch.(node) + 1

  let recover t node =
    check_node t node;
    t.up.(node) <- true

  let is_up t node =
    check_node t node;
    t.up.(node)

  let partition t a b =
    t.partitions <- (Array.of_list a, Array.of_list b) :: t.partitions

  let heal t = t.partitions <- []

  let blocked t a b =
    let mem x arr = Array.exists (fun y -> y = x) arr in
    List.exists
      (fun (ga, gb) -> (mem a ga && mem b gb) || (mem a gb && mem b ga))
      t.partitions

  let reachable t a b =
    check_node t a;
    check_node t b;
    t.up.(a) && t.up.(b) && not (blocked t a b)

  (* Per-kind counters follow the logical messages, not the envelopes: a
     batch of N invalidations counts as N under "cm.inval", so kind-level
     comparisons stay meaningful whether or not coalescing is on. *)
  let account_kind t msg =
    List.iter
      (fun k ->
        t.atoms <- t.atoms + 1;
        Hashtbl.replace t.by_kind k
          (1 + Option.value (Hashtbl.find_opt t.by_kind k) ~default:0))
      (M.kinds msg)

  let deliver t ~src ~dst msg =
    if t.up.(dst) && not (blocked t src dst) then begin
      match t.handlers.(dst) with
      | Some h ->
        t.delivered <- t.delivered + 1;
        h ~src msg
      | None -> t.dropped <- t.dropped + 1
    end
    else t.dropped <- t.dropped + 1

  (* Put a message in flight towards [dst]: the delivery callback is a
     no-op if the destination crashed in the meantime (the crash already
     accounted the message as dropped). *)
  let schedule_delivery t ~after ~src ~dst msg =
    let epoch = t.node_epoch.(dst) in
    t.inflight.(dst) <- t.inflight.(dst) + 1;
    ignore
      (Ksim.Engine.schedule t.engine ~after (fun () ->
           if t.node_epoch.(dst) = epoch then begin
             t.inflight.(dst) <- t.inflight.(dst) - 1;
             deliver t ~src ~dst msg
           end))

  (* A local send still goes through the scheduler (at a nominal IPC cost)
     so that handler re-entrancy never depends on whether a peer happens to
     be co-located. *)
  let local_delay = Ksim.Time.us 5

  let send t ~src ~dst msg =
    check_node t src;
    check_node t dst;
    if not t.up.(src) then ()
    else begin
      t.sent <- t.sent + 1;
      t.bytes_sent <- t.bytes_sent + M.size_bytes msg;
      account_kind t msg;
      (match t.trace with
       | Some f -> f (Ksim.Engine.now t.engine) ~src ~dst msg
       | None -> ());
      if src = dst then
        schedule_delivery t ~after:local_delay ~src ~dst msg
      else if blocked t src dst || not t.up.(dst) then
        (* Unreachable at send time: the packet leaves but can never land. *)
        t.dropped <- t.dropped + 1
      else begin
        let profile = Topology.profile t.topology src dst in
        if profile.loss > 0.0 && Kutil.Rng.float t.rng 1.0 < profile.loss then
          t.dropped <- t.dropped + 1
        else begin
          let jitter =
            if profile.jitter > 0 then Kutil.Rng.int t.rng profile.jitter else 0
          in
          let serialisation =
            Ksim.Time.of_sec_f
              (float_of_int (M.size_bytes msg) /. profile.bandwidth_bps)
          in
          let delay = profile.base_latency + jitter + serialisation in
          if t.ff_drop > 0.0 && Kutil.Rng.float t.frng 1.0 < t.ff_drop then
            t.dropped <- t.dropped + 1
          else begin
            let extra () =
              if t.ff_delay > 0.0 then
                Ksim.Time.of_sec_f (Kutil.Rng.float t.frng t.ff_delay)
              else 0
            in
            schedule_delivery t ~after:(delay + extra ()) ~src ~dst msg;
            if
              t.ff_duplicate > 0.0
              && Kutil.Rng.float t.frng 1.0 < t.ff_duplicate
            then begin
              (* the duplicate is a second envelope on the wire: count it
                 as sent so the conservation invariant keeps holding *)
              t.sent <- t.sent + 1;
              schedule_delivery t ~after:(delay + extra ()) ~src ~dst msg
            end
          end
        end
      end
    end

  let set_frame_faults t ?seed ?(drop = 0.0) ?(duplicate = 0.0) ?(delay = 0.0)
      () =
    (match seed with
    | Some s -> t.frng <- Kutil.Rng.create ~seed:s
    | None -> ());
    t.ff_drop <- drop;
    t.ff_duplicate <- duplicate;
    t.ff_delay <- delay

  let clear_frame_faults t =
    t.ff_drop <- 0.0;
    t.ff_duplicate <- 0.0;
    t.ff_delay <- 0.0

  let stats (t : t) =
    let by_kind =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_kind []
      |> List.sort compare
    in
    {
      sent = t.sent - t.base_sent;
      delivered = t.delivered - t.base_delivered;
      dropped = t.dropped - t.base_dropped;
      in_flight = Array.fold_left ( + ) 0 t.inflight;
      atoms = t.atoms;
      bytes_sent = t.bytes_sent;
      by_kind;
    }

  let reset_stats (t : t) =
    t.base_delivered <- t.delivered;
    t.base_dropped <- t.dropped;
    (* Not [t.sent]: anything still in flight stays counted as sent in the
       new window, so conservation holds when it later delivers or drops. *)
    t.base_sent <- t.delivered + t.dropped;
    t.atoms <- 0;
    t.bytes_sent <- 0;
    Hashtbl.reset t.by_kind

  let set_trace t f = t.trace <- Some f
  let clear_trace t = t.trace <- None
end
