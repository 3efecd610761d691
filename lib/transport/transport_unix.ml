module Codec = Kutil.Codec

(* An accepted connection. Received bytes live in [in_buf.[in_lo ..
   in_hi - 1]]; [Unix.read] writes straight into the free tail, complete
   frames are decoded where they lie, and the buffer is compacted in place
   (or doubled, when the frame being assembled cannot fit) only once the
   tail is full. *)
type incoming = {
  in_fd : Unix.file_descr;
  mutable in_buf : bytes;
  mutable in_lo : int;
  mutable in_hi : int;
  mutable in_src : int option;
      (* learned from the first decoded frame; lets [sever] target the
         connection a given peer speaks on *)
}

let initial_in_buf = 4096

(* Re-dial pacing for a peer whose connection died. [ever] distinguishes
   start-up (peer may simply not have bound yet: wait politely) from a
   genuine loss (fail fast, back off between dial attempts). *)
type dial = {
  d_backoff : Kutil.Backoff.t;
  mutable d_next : float;  (* wall-clock time before which we won't dial *)
  mutable d_ever : bool;   (* some connect to this peer has succeeded *)
}

module Make (W : Transport.WIRE) = struct
  module Core = Transport.Make (W)
  module Msg = Core.Msg

  type t = {
    id : int;
    topology : Knet.Topology.t;
    dir : string;
    engine : Ksim.Engine.t;
    start : float;  (* wall-clock origin of the engine's virtual clock *)
    listen_fd : Unix.file_descr;
    outgoing : (int, Unix.file_descr) Hashtbl.t;
    mutable incoming : incoming list;
    enc : Codec.encoder;  (* reused for every outgoing frame *)
    mutable core : Core.t option;  (* the RPC core over this link; set by [create] *)
    mutable closed : bool;
    edge : Knet.Edge.t;  (* this endpoint's local fault view, shim and ledger *)
    dial_rng : Kutil.Rng.t;  (* jitters re-dial backoff; nothing else draws *)
    dials : (int, dial) Hashtbl.t;
  }

  let sock_path dir node =
    Filename.concat dir (Printf.sprintf "node-%d.sock" node)

  let elapsed t = int_of_float ((Unix.gettimeofday () -. t.start) *. 1e9)

  let id t = t.id
  let engine t = t.engine

  (* The core's frame format, bodies read with this protocol's decoders. *)
  let decode_payload =
    Msg.decode_payload ~request:W.decode_request ~response:W.decode_response

  (* ---------------- sockets ---------------- *)

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let drop_outgoing t dst =
    match Hashtbl.find_opt t.outgoing dst with
    | Some fd ->
      Hashtbl.remove t.outgoing dst;
      close_quietly fd
    | None -> ()

  (* Tear down every connection this endpoint shares with [dst]: the
     cached outgoing socket and any accepted connection whose first frame
     identified [dst] as the speaker. The next send re-dials. *)
  let sever t dst =
    drop_outgoing t dst;
    t.incoming <-
      List.filter
        (fun c ->
          match c.in_src with
          | Some s when s = dst ->
            close_quietly c.in_fd;
            false
          | _ -> true)
        t.incoming

  (* A real process cannot reach into a peer, so a crash injected here
     also tears down the connections the simulated equivalent would kill:
     every one for this node itself (recovery then exercises the re-dial
     path), the peer's own otherwise. *)
  let on_crash t n =
    if n = t.id then
      List.iter (fun d -> sever t d)
        (Hashtbl.fold (fun k _ acc -> k :: acc) t.outgoing [])
    else sever t n

  (* ---------------- dialing ---------------- *)

  (* How long a send will politely block waiting for a peer that has
     never yet answered and has not bound its socket yet (process start is
     not synchronised). A bound socket that refuses the connection belongs
     to a dead peer, and after first contact the wait drops to zero: both
     fail fast, and re-dial attempts are paced by exponential backoff
     instead. *)
  let connect_grace = 10.0 (* seconds *)
  let dial_backoff_base = Ksim.Time.ms 50
  let dial_backoff_cap = Ksim.Time.ms 1000

  let dial_state t dst =
    match Hashtbl.find_opt t.dials dst with
    | Some d -> d
    | None ->
      let d =
        {
          d_backoff =
            Kutil.Backoff.make ~rng:t.dial_rng ~base:dial_backoff_base
              ~cap:dial_backoff_cap ();
          d_next = 0.0;
          d_ever = false;
        }
      in
      Hashtbl.replace t.dials dst d;
      d

  let connect_out t dst =
    match Hashtbl.find_opt t.outgoing dst with
    | Some fd -> Some fd
    | None ->
      let d = dial_state t dst in
      if Unix.gettimeofday () < d.d_next then None
      else begin
        let path = sock_path t.dir dst in
        let fail () =
          d.d_next <-
            Unix.gettimeofday ()
            +. (float_of_int (Kutil.Backoff.next d.d_backoff) /. 1e9);
          None
        in
        let deadline = Unix.gettimeofday () +. connect_grace in
        let rec go () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () ->
            Hashtbl.replace t.outgoing dst fd;
            d.d_ever <- true;
            d.d_next <- 0.0;
            Kutil.Backoff.reset d.d_backoff;
            Some fd
          | exception Unix.Unix_error (ENOENT, _, _)
            when (not d.d_ever) && Unix.gettimeofday () <= deadline ->
            close_quietly fd;
            Unix.sleepf 0.02;
            go ()
          | exception Unix.Unix_error _ ->
            close_quietly fd;
            fail ()
        in
        go ()
      end

  let write_all fd b n =
    let rec go off =
      if off < n then go (off + Unix.write fd b off (n - off))
    in
    go 0

  (* ---------------- delivery ---------------- *)

  (* Local sends skip the socket but still round-trip through the codec, so
     a self-message exercises exactly the bytes a remote peer would see. *)
  let local_delay = Ksim.Time.us 5

  (* Push one encoded frame at [dst] right now. [false] means the send
     itself failed — no connection and the dial was refused, or the write
     hit a dead socket (peer vanished: evict the cached connection so the
     next send re-dials). Either way the frame is counted dropped. *)
  let send_frame t ~dst frame len =
    match connect_out t dst with
    | None ->
      Knet.Edge.note_dropped t.edge;
      false
    | Some fd -> (
      try
        write_all fd frame len;
        true
      with Unix.Unix_error _ ->
        drop_outgoing t dst;
        Knet.Edge.note_dropped t.edge;
        false)

  (* Decode one frame's payload where it lies in [buf] and schedule its
     delivery to the core [after] ns from now, so handlers run inside an
     engine event exactly as under simulation (and fibers they resume are
     driven by the engine, not the socket pump's stack). Frames whose
     speaker this endpoint believes down or partitioned away are filtered
     at delivery; a malformed frame is counted dropped. *)
  let receive t buf ~off ~len ~after =
    match decode_payload (Codec.decoder_sub buf ~off ~len) with
    | src, msg ->
      ignore
        (Ksim.Engine.schedule t.engine ~after (fun () ->
             if Knet.Edge.reachable t.edge src t.id then begin
               Knet.Edge.note_delivered t.edge;
               match t.core with
               | Some core -> Core.deliver core ~src ~dst:t.id msg
               | None -> ()
             end
             else Knet.Edge.note_dropped t.edge))
    | exception Codec.Decode_error _ -> Knet.Edge.note_dropped t.edge

  (* Hand one frame to the socket [after] ns from now. A deferred frame
     must not alias the encoder, which will have moved on: it sends a
     copy. *)
  let push t ~dst frame len ~after =
    if after = 0 then send_frame t ~dst frame len
    else begin
      let frame = Bytes.sub frame 0 len in
      ignore
        (Ksim.Engine.schedule t.engine ~after (fun () ->
             ignore (send_frame t ~dst frame len)));
      true
    end

  (* Transmit = encode, then the local loopback, or the edge's shim and the
     socket. Returns [false] only on positive evidence the peer is
     unreachable right now; shim losses return [true] because the frame
     left this endpoint as far as the caller can tell. A self-send never
     reaches the wire, so the shim never sees it; it is decoded now, and
     the decoded message owns its bytes. *)
  let transmit t ~dst msg =
    Msg.encode_frame t.enc ~src:t.id msg;
    let frame = Codec.contents t.enc and len = Codec.length t.enc in
    let edge = t.edge in
    Knet.Edge.note_sent edge ~bytes:len (Msg.kinds msg);
    if not (Knet.Edge.reachable edge t.id dst) then begin
      Knet.Edge.note_dropped edge;
      false
    end
    else if dst = t.id then begin
      receive t frame ~off:Msg.frame_prefix ~len:(len - Msg.frame_prefix)
        ~after:local_delay;
      true
    end
    else
      match Knet.Edge.fate edge ~bytes:len with
      | Lost -> true (* silently lost in flight: the caller sees silence *)
      | Once after -> push t ~dst frame len ~after
      | Twice (a, b) ->
        let ok = push t ~dst frame len ~after:a in
        ignore (push t ~dst frame len ~after:b);
        ok

  (* ---------------- socket pump ---------------- *)

  let accept_all t =
    let rec go () =
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        t.incoming <-
          {
            in_fd = fd;
            in_buf = Bytes.create initial_in_buf;
            in_lo = 0;
            in_hi = 0;
            in_src = None;
          }
          :: t.incoming;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
    in
    go ()

  (* Decode every complete frame buffered on [c]. [false] means the stream
     is corrupt (a length no frame can have) and the connection must go. *)
  let take_frames t c =
    let rec go () =
      let avail = c.in_hi - c.in_lo in
      if avail < Msg.frame_prefix then true
      else
        let n = Msg.payload_length c.in_buf c.in_lo in
        if n < 0 then false
        else if avail < Msg.frame_prefix + n then true
        else begin
          let off = c.in_lo + Msg.frame_prefix in
          (* Peek the speaker so [sever] can find the connection a peer
             speaks on. *)
          if c.in_src = None then
            c.in_src <- Msg.payload_src c.in_buf ~off ~len:n;
          receive t c.in_buf ~off ~len:n ~after:0;
          c.in_lo <- c.in_lo + Msg.frame_prefix + n;
          go ()
        end
    in
    let ok = go () in
    if c.in_lo = c.in_hi then begin
      c.in_lo <- 0;
      c.in_hi <- 0
    end;
    ok

  (* Free the tail of a full buffer: slide the partial frame to the front,
     or, when that frame cannot fit even then, double until it does. *)
  let make_room c =
    let pending = c.in_hi - c.in_lo in
    let want =
      if pending < Msg.frame_prefix then Msg.frame_prefix
      else Msg.frame_prefix + Msg.payload_length c.in_buf c.in_lo
    in
    let cap = Bytes.length c.in_buf in
    if want <= cap then Bytes.blit c.in_buf c.in_lo c.in_buf 0 pending
    else begin
      let size = ref cap in
      while !size < want do
        size := 2 * !size
      done;
      let b = Bytes.create !size in
      Bytes.blit c.in_buf c.in_lo b 0 pending;
      c.in_buf <- b
    end;
    c.in_lo <- 0;
    c.in_hi <- pending

  (* Read everything available on [c] straight into its buffer's free tail,
     decoding complete frames as they land. Returns [false] when the
     connection is gone (or corrupt) and should be removed. *)
  let read_into t c =
    let rec go () =
      if c.in_hi = Bytes.length c.in_buf then make_room c;
      match
        Unix.read c.in_fd c.in_buf c.in_hi (Bytes.length c.in_buf - c.in_hi)
      with
      | 0 -> false
      | n ->
        c.in_hi <- c.in_hi + n;
        take_frames t c && go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> false
    in
    let alive = go () in
    if not alive then close_quietly c.in_fd;
    alive

  (* Sleep in select until the sockets speak or the next timer is due
     (at most [max_wait]), then ingest frames. *)
  let await_input ~max_wait t =
    if t.closed then invalid_arg "Transport_unix.pump: endpoint closed";
    let timeout =
      match Ksim.Engine.next_at t.engine with
      | Some at ->
        let now = elapsed t in
        if at <= now then 0.0
        else Float.min max_wait (float_of_int (at - now) /. 1e9)
      | None -> max_wait
    in
    let fds = t.listen_fd :: List.map (fun c -> c.in_fd) t.incoming in
    (match Unix.select fds [] [] timeout with
     | ready, _, _ ->
       if List.memq t.listen_fd ready then accept_all t;
       if ready <> [] then
         t.incoming <-
           List.filter
             (fun c -> if List.memq c.in_fd ready then read_into t c else true)
             t.incoming
     | exception Unix.Unix_error (EINTR, _, _) -> ())

  (* One scheduler-and-sockets turn: run every engine event due by the wall
     clock, wait for input, run the engine again. *)
  let pump ?(max_wait = 0.05) t =
    Ksim.Engine.run ~until:(elapsed t) t.engine;
    await_input ~max_wait t;
    Ksim.Engine.run ~until:(elapsed t) t.engine

  (* ---------------- the link ---------------- *)

  (* What the RPC core sees of this endpoint. *)
  let link t =
    {
      Core.send =
        (fun ~src ~dst msg ->
          if src <> t.id then
            invalid_arg "Transport_unix: src must be the local node";
          transmit t ~dst msg);
      topology = t.topology;
      edge = t.edge;
    }

  (* ---------------- lifecycle and driving ---------------- *)

  let create ?(seed = 42) ~dir ~id topology =
    if id < 0 || id >= Knet.Topology.node_count topology then
      invalid_arg "Transport_unix.create: bad node id";
    (* A peer that vanished mid-write must surface as EPIPE, not kill the
       process. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock listen_fd;
    let path = sock_path dir id in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Unix.bind listen_fd (Unix.ADDR_UNIX path);
    Unix.listen listen_fd 64;
    let t =
      {
        id;
        topology;
        dir;
        engine = Ksim.Engine.create ~seed:(seed + id) ();
        start = Unix.gettimeofday ();
        listen_fd;
        outgoing = Hashtbl.create 8;
        incoming = [];
        enc = Codec.encoder ();
        core = None;
        closed = false;
        edge =
          Knet.Edge.create ~seed:(seed + (1000 * (id + 1)))
            (Knet.Topology.node_count topology);
        dial_rng = Kutil.Rng.create ~seed:(seed + (1000 * (id + 1)) + 500);
        dials = Hashtbl.create 8;
      }
    in
    Knet.Edge.on_crash t.edge (on_crash t);
    t.core <- Some (Core.connect t.engine (link t));
    t

  let pack t = Option.get t.core

  (* Drive a fiber to completion against the wall clock, pumping this
     endpoint (and [others], for single-process multi-endpoint harnesses)
     until its promise resolves. There is no quiescence-based deadlock
     detection here — real time keeps flowing — so liveness comes from the
     call policies' timeouts. *)
  let run_fiber ?(others = []) ?(name = "run_fiber") t f =
    let p = Ksim.Fiber.async t.engine ~name f in
    while not (Ksim.Promise.is_resolved p) do
      (* Work that needs no socket (a purely local operation) completes
         right here; only enter the blocking select while the fiber is
         genuinely waiting on the wire or a timer. No engine run comes
         between the check and the select ([pump] would start with one),
         so a fiber that completes is never followed by a wait. *)
      Ksim.Engine.run ~until:(elapsed t) t.engine;
      if not (Ksim.Promise.is_resolved p) then begin
        await_input ~max_wait:0.01 t;
        List.iter (fun o -> pump ~max_wait:0.0 o) others
      end
    done;
    Option.get (Ksim.Promise.peek p)

  let close t =
    if not t.closed then begin
      t.closed <- true;
      close_quietly t.listen_fd;
      Hashtbl.iter (fun _ fd -> close_quietly fd) t.outgoing;
      Hashtbl.reset t.outgoing;
      List.iter (fun c -> close_quietly c.in_fd) t.incoming;
      t.incoming <- [];
      try Unix.unlink (sock_path t.dir t.id) with Unix.Unix_error _ -> ()
    end
end
