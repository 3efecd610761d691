(* Conformance suite for the RPC core over its two links: the same
   assertions run over the simulated network and over Unix-domain sockets
   (all endpoints living in this one process, pumped round-robin).
   Anything a daemon relies on — correlation, timeouts, retries, oneway
   and batch dispatch, coalescing, stats accounting, injected faults and
   the seeded frame shim — must hold identically on both. *)

module Time = Ksim.Time
module Topology = Knet.Topology
module Policy = Krpc.Policy
module Codec = Kutil.Codec

(* A protocol with real byte codecs, so it can ride the socket link. *)
module Proto = struct
  type request = Echo of string | Silent
  type response = Echoed of string

  let request_kind = function Echo _ -> "echo" | Silent -> "silent"

  module Codec = Kutil.Codec

  let encode_request enc = function
    | Echo s ->
      Codec.u8 enc 0;
      Codec.string enc s
    | Silent -> Codec.u8 enc 1

  let decode_request dec =
    match Codec.read_u8 dec with
    | 0 -> Echo (Codec.read_string dec)
    | 1 -> Silent
    | n -> raise (Codec.Decode_error (Printf.sprintf "Proto.request: %d" n))

  let encode_response enc (Echoed s) = Codec.string enc s
  let decode_response dec = Echoed (Codec.read_string dec)
end

module T = Ktransport.Transport.Make (Proto)
module Sockets = Ktransport.Transport_unix.Make (Proto)

(* What the suite needs from a link under test. Fresh state per test. *)
module type HARNESS = sig
  val name : string

  type h

  val setup : unit -> h
  val teardown : h -> unit
  val transport : h -> node:int -> T.t
  (** The transport value node [node]'s code would hold. One shared value
      under simulation; a per-process endpoint on sockets. *)

  val run : h -> src:int -> (unit -> 'a) -> 'a
  (** Run a fiber on [src]'s engine to completion, driving all nodes. *)

  val settle : h -> unit
  (** Drain in-flight deliveries (oneways have no completion to await). *)

  val timeout : Time.t
  (** A per-attempt timeout comfortably above the link's delivery
      latency, yet short enough that timeout tests stay quick. *)

  val refused : [ `Timeout | `Unreachable ]
  (** How a call to a node crashed by {!inject} fails: silence on the
      simulated network, positive evidence at a socket endpoint, which
      filters the frame at its own edge. *)

  val inject : h -> (Knet.Edge.t -> unit) -> unit
  (** Apply a fault operation at every vantage: once to the simulated
      link's one edge, once per endpoint's edge on sockets (where
      injection is each endpoint's local view). *)

  val vantages : h -> T.t list
  (** One transport per traffic ledger: the simulated network's one, or
      every endpoint's. Summed, their stats count every envelope once. *)
end

module Sim_harness : HARNESS = struct
  let name = "sim"

  type h = { engine : Ksim.Engine.t; transport : T.t }

  let setup () =
    let engine = Ksim.Engine.create ~seed:7 () in
    let topology = Topology.symmetric ~nodes_per_cluster:2 ~clusters:1 in
    let transport, _net = T.sim engine topology in
    { engine; transport }

  let teardown _ = ()
  let transport h ~node:_ = h.transport

  let run h ~src:_ f =
    let p = Ksim.Fiber.async h.engine f in
    Ksim.Engine.run h.engine;
    match Ksim.Promise.peek p with
    | Some v -> v
    | None -> Alcotest.fail "sim: fiber blocked at quiescence"

  let settle h = Ksim.Engine.run h.engine
  let timeout = Time.ms 100
  let refused = `Timeout

  let inject h f = f (T.faults h.transport)
  let vantages h = [ h.transport ]
end

module Unix_harness = struct
  let name = "unix"

  type h = { dir : string; eps : Sockets.t array }

  let setup () =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ktransport-test-%d-%d" (Unix.getpid ())
           (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000))
    in
    Unix.mkdir dir 0o700;
    let topology = Topology.symmetric ~nodes_per_cluster:2 ~clusters:1 in
    { dir; eps = Array.init 2 (fun id -> Sockets.create ~dir ~id topology) }

  let teardown h =
    Array.iter Sockets.close h.eps;
    (try Unix.rmdir h.dir with Unix.Unix_error _ -> ())

  let transport h ~node = Sockets.pack h.eps.(node)

  let run h ~src f =
    let others =
      Array.to_list h.eps
      |> List.filter (fun e -> Sockets.id e <> src)
    in
    Sockets.run_fiber ~others h.eps.(src) f

  let settle h =
    (* No quiescence signal on real sockets: pump everyone briefly. *)
    let deadline = Unix.gettimeofday () +. 0.3 in
    while Unix.gettimeofday () < deadline do
      Array.iter (fun e -> Sockets.pump ~max_wait:0.01 e) h.eps
    done

  (* Generous: delivery is microseconds, but a loaded CI box can stall a
     process for tens of milliseconds between pumps. *)
  let timeout = Time.sec 2
  let refused = `Unreachable

  let inject h f = Array.iter (fun e -> f (T.faults (Sockets.pack e))) h.eps
  let vantages h = Array.to_list (Array.map Sockets.pack h.eps)
end

(* The functor application below still checks Unix_harness against
   HARNESS; the module itself stays unsealed so socket-only tests can
   reach the raw endpoints. *)
module _ : HARNESS = Unix_harness

module Suite (H : HARNESS) = struct
  let with_h f () =
    let h = H.setup () in
    Fun.protect ~finally:(fun () -> H.teardown h) (fun () -> f h)

  let policy = Policy.with_timeout H.timeout
  let echo_handler ~src:_ ~span:_ req ~reply =
    match req with
    | Proto.Echo s -> reply (Proto.Echoed s)
    | Proto.Silent -> ()

  let test_call_response h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    match
      H.run h ~src:0 (fun () ->
          T.call (H.transport h ~node:0) ~src:0 ~dst:1 ~policy (Proto.Echo "hi"))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "echo" "hi" s
    | Error _ -> Alcotest.fail "call failed"

  (* Ten interleaved calls: every reply must land on its own request. *)
  let test_correlation h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let results =
      H.run h ~src:0 (fun () ->
          let t0 = H.transport h ~node:0 in
          let promises =
            List.init 10 (fun i ->
                Ksim.Fiber.async (T.engine t0) (fun () ->
                    T.call t0 ~src:0 ~dst:1 ~policy
                      (Proto.Echo (string_of_int i))))
          in
          List.mapi
            (fun i p ->
              match Ksim.Fiber.await p with
              | Ok (Proto.Echoed s) -> (i, s)
              | Error _ -> (i, "<error>"))
            promises)
    in
    Alcotest.(check (list (pair int string)))
      "each call got its own answer"
      (List.init 10 (fun i -> (i, string_of_int i)))
      results

  let test_timeout h =
    T.set_server (H.transport h ~node:1) 1 (fun ~src:_ ~span:_ _ ~reply:_ -> ());
    let t0 = H.transport h ~node:0 in
    let r =
      H.run h ~src:0 (fun () ->
          T.call t0 ~src:0 ~dst:1
            ~policy:(Policy.with_timeout (Time.ms 50))
            Proto.Silent)
    in
    Alcotest.(check bool) "timed out" true (r = Error `Timeout);
    Alcotest.(check int) "no leaked pending call" 0 (T.pending_calls t0)

  let test_oneway h =
    let got = ref [] in
    T.set_server (H.transport h ~node:1) 1 (fun ~src ~span:_ req ~reply:_ ->
        match req with
        | Proto.Echo s -> got := (src, s) :: !got
        | Proto.Silent -> ());
    T.notify (H.transport h ~node:0) ~src:0 ~dst:1 (Proto.Echo "oneway");
    H.settle h;
    Alcotest.(check (list (pair int string)))
      "delivered with source" [ (0, "oneway") ] !got

  (* A silent server costs the caller the whole reply window. *)
  let test_silent_server h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let t0 = H.transport h ~node:0 in
    let start = Ksim.Engine.now (T.engine t0) in
    let r =
      H.run h ~src:0 (fun () ->
          T.call t0 ~src:0 ~dst:1
            ~policy:(Policy.with_timeout (Time.ms 100))
            Proto.Silent)
    in
    Alcotest.(check bool) "timeout" true (r = Error `Timeout);
    Alcotest.(check bool) "waited" true
      (Ksim.Engine.now (T.engine t0) - start >= Time.ms 100)

  let test_retries_exhausted h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let t0 = H.transport h ~node:0 in
    H.inject h (fun f -> Knet.Edge.crash f 1);
    let r =
      H.run h ~src:0 (fun () ->
          T.call t0 ~src:0 ~dst:1
            ~policy:(Policy.with_timeout ~attempts:3 (Time.ms 20))
            (Proto.Echo "x"))
    in
    Alcotest.(check bool) "exhausted" true (r = Error H.refused);
    Alcotest.(check int) "no leaked pending calls" 0 (T.pending_calls t0)

  let test_server_replacement h =
    let t1 = H.transport h ~node:1 in
    T.set_server t1 1 (fun ~src:_ ~span:_ _ ~reply -> reply (Proto.Echoed "v1"));
    T.set_server t1 1 (fun ~src:_ ~span:_ _ ~reply -> reply (Proto.Echoed "v2"));
    match
      H.run h ~src:0 (fun () ->
          T.call (H.transport h ~node:0) ~src:0 ~dst:1 ~policy (Proto.Echo "?"))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "latest handler" "v2" s
    | Error _ -> Alcotest.fail "call failed"

  (* An envelope reaching a node with no server counts as delivered and is
     ignored: a request there goes unanswered. *)
  let test_serverless_arrival h =
    let t0 = H.transport h ~node:0 and t1 = H.transport h ~node:1 in
    let s0 = T.stats t1 in
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "nobody");
    H.settle h;
    let s1 = T.stats t1 in
    Alcotest.(check int) "delivered" 1 (s1.delivered - s0.delivered);
    Alcotest.(check int) "not dropped" 0 (s1.dropped - s0.dropped);
    let r =
      H.run h ~src:0 (fun () ->
          T.call t0 ~src:0 ~dst:1
            ~policy:(Policy.with_timeout (Time.ms 50))
            (Proto.Echo "anyone?"))
    in
    Alcotest.(check bool) "unanswered" true (r = Error `Timeout)

  (* Records the [Echo] payloads node [node] is sent, newest first. *)
  let recorder h ~node =
    let got = ref [] in
    T.set_server (H.transport h ~node) node (fun ~src:_ ~span:_ req ~reply:_ ->
        match req with
        | Proto.Echo s -> got := s :: !got
        | Proto.Silent -> ());
    got

  (* Three same-instant coalescable notifies: one envelope on the wire,
     three separate handler dispatches in send order, three atoms. *)
  let test_batch_dispatch h =
    let got = recorder h ~node:1 in
    let t0 = H.transport h ~node:0 in
    let s0 = T.stats t0 in
    H.run h ~src:0 (fun () ->
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "a");
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "b");
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "c"));
    H.settle h;
    let s1 = T.stats t0 in
    Alcotest.(check (list string))
      "all delivered, in send order" [ "a"; "b"; "c" ] (List.rev !got);
    Alcotest.(check int) "one envelope" 1 (s1.sent - s0.sent);
    Alcotest.(check int) "three atoms" 3 (s1.atoms - s0.atoms)

  (* Queues are per destination: node 0 itself is the second one. *)
  let test_coalesce_per_destination h =
    let got0 = recorder h ~node:0 and got1 = recorder h ~node:1 in
    let t0 = H.transport h ~node:0 in
    let s0 = T.stats t0 in
    H.run h ~src:0 (fun () ->
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "x");
        T.notify t0 ~src:0 ~dst:0 ~coalesce:true (Proto.Echo "y");
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "z"));
    H.settle h;
    let s1 = T.stats t0 in
    Alcotest.(check (list string)) "dst 1 got both" [ "x"; "z" ] (List.rev !got1);
    Alcotest.(check (list string)) "dst 0 got its one" [ "y" ] !got0;
    (* One batch to node 1, one plain oneway to node 0. *)
    Alcotest.(check int) "two envelopes" 2 (s1.sent - s0.sent)

  let test_coalesce_singleton_is_plain h =
    let got = recorder h ~node:1 in
    let t0 = H.transport h ~node:0 in
    let bytes () = (T.stats t0).bytes_sent in
    let b0 = bytes () in
    H.run h ~src:0 (fun () ->
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "solo"));
    H.settle h;
    let b1 = bytes () in
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "solo");
    H.settle h;
    Alcotest.(check (list string)) "both delivered" [ "solo"; "solo" ] !got;
    Alcotest.(check int) "a batch of one costs exactly a oneway" (bytes () - b1)
      (b1 - b0)

  let test_coalescing_disabled h =
    let got = recorder h ~node:1 in
    let t0 = H.transport h ~node:0 in
    T.set_coalescing t0 false;
    Alcotest.(check bool) "flag reads back" false (T.coalescing t0);
    let s0 = T.stats t0 in
    H.run h ~src:0 (fun () ->
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "a");
        T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "b"));
    H.settle h;
    let s1 = T.stats t0 in
    (* Separate envelopes may reorder under link jitter. *)
    Alcotest.(check (list string)) "delivered" [ "a"; "b" ]
      (List.sort compare !got);
    Alcotest.(check int) "one envelope per message" 2 (s1.sent - s0.sent)

  (* With tracing on, a flush that merges traced messages emits one
     "rpc.batch" event for the envelope. *)
  let test_batch_trace_event h =
    let ring = Ktrace.Trace.Ring.create () in
    let sink = Ktrace.Trace.Ring.install ring in
    Fun.protect
      ~finally:(fun () ->
        Ktrace.Trace.uninstall sink;
        Ktrace.Trace.reset ())
      (fun () ->
        let got = recorder h ~node:1 in
        let t0 = H.transport h ~node:0 in
        H.run h ~src:0 (fun () ->
            let engine = T.engine t0 in
            let op = Ktrace.Trace.root ~engine ~node:0 "op" in
            let span = Ktrace.Trace.id op in
            T.notify t0 ~src:0 ~dst:1 ~span ~coalesce:true (Proto.Echo "a");
            T.notify t0 ~src:0 ~dst:1 ~span ~coalesce:true (Proto.Echo "b");
            Ktrace.Trace.finish ~engine op);
        H.settle h;
        Alcotest.(check (list string)) "delivered" [ "a"; "b" ] (List.rev !got);
        let batches =
          List.filter_map
            (function
              | Ktrace.Trace.Event { name = "rpc.batch"; attrs; _ } -> Some attrs
              | _ -> None)
            (Ktrace.Trace.Ring.records ring)
        in
        Alcotest.(check (list (option string)))
          "one event, two items" [ Some "2" ]
          (List.map (List.assoc_opt "items") batches))

  let test_stats_accounting h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let t0 = H.transport h ~node:0 in
    T.reset_stats t0;
    ignore
      (H.run h ~src:0 (fun () ->
           T.call t0 ~src:0 ~dst:1 ~policy (Proto.Echo "counted")));
    H.settle h;
    let s = T.stats t0 in
    Alcotest.(check bool) "sent some" true (s.sent > 0);
    Alcotest.(check bool) "bytes counted" true (s.bytes_sent > 0);
    (* Conservation. Under simulation the counters are global, so this is
       the network invariant proper; a socket endpoint counts its own
       vantage (sent the request, delivered the response) and the books
       balance here because a call's traffic is symmetric. *)
    Alcotest.(check int) "sent = delivered + dropped + in_flight" s.sent
      (s.delivered + s.dropped + s.in_flight);
    Alcotest.(check bool) "echo kind counted" true
      (List.mem_assoc "echo" s.by_kind)

  (* Fault injection is a capability of both links; the exact
     error differs (sim frames die silently: [`Timeout]; a socket endpoint
     filters at its own edge and knows: [`Unreachable]) but blocked-then-
     healed behaviour must agree. *)
  let fail_policy = Policy.with_timeout ~attempts:2 (Time.ms 200)

  let test_partition_heal h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let t0 = H.transport h ~node:0 in
    H.inject h (fun f -> Knet.Edge.partition f [ 0 ] [ 1 ]);
    Alcotest.(check bool) "reachable sees the cut" false
      (Knet.Edge.reachable (T.faults t0) 0 1);
    (match
       H.run h ~src:0 (fun () ->
           T.call t0 ~src:0 ~dst:1 ~policy:fail_policy (Proto.Echo "cut"))
     with
     | Error (`Timeout | `Unreachable) -> ()
     | Ok _ -> Alcotest.fail "call crossed a partition");
    H.inject h Knet.Edge.heal;
    match
      H.run h ~src:0 (fun () ->
          T.call t0 ~src:0 ~dst:1 ~policy (Proto.Echo "healed"))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "healed" "healed" s
    | Error _ -> Alcotest.fail "call failed after heal"

  let test_crash_recover h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let t0 = H.transport h ~node:0 in
    H.inject h (fun f -> Knet.Edge.crash f 1);
    Alcotest.(check bool) "is_up sees the crash" false
      (Knet.Edge.is_up (T.faults t0) 1);
    (match
       H.run h ~src:0 (fun () ->
           T.call t0 ~src:0 ~dst:1 ~policy:fail_policy (Proto.Echo "down"))
     with
     | Error (`Timeout | `Unreachable) -> ()
     | Ok _ -> Alcotest.fail "call reached a crashed node");
    H.inject h (fun f -> Knet.Edge.recover f 1);
    match
      H.run h ~src:0 (fun () ->
          T.call t0 ~src:0 ~dst:1 ~policy (Proto.Echo "back"))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "recovered" "back" s
    | Error _ -> Alcotest.fail "call failed after recovery"

  (* ---- the edge's seeded frame shim, armed through [faults] ---- *)

  let frame_faults h ?seed ?drop ?duplicate ?delay () =
    H.inject h (fun f ->
        Knet.Edge.set_frame_faults f ?seed ?drop ?duplicate ?delay ())

  let call_ok ?(policy = policy) h ~dst msg =
    match
      H.run h ~src:0 (fun () ->
          T.call (H.transport h ~node:0) ~src:0 ~dst ~policy (Proto.Echo msg))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "echo" msg s
    | Error `Timeout -> Alcotest.fail "unexpected timeout"
    | Error `Unreachable -> Alcotest.fail "unexpected unreachable"

  (* drop = 1.0: every request dies in flight. That is silence
     ([`Timeout]), not positive evidence, and it counts in [dropped]. *)
  let test_frame_drop h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    let t0 = H.transport h ~node:0 in
    frame_faults h ~seed:11 ~drop:1.0 ();
    let d0 = (T.stats t0).dropped in
    (match
       H.run h ~src:0 (fun () ->
           T.call t0 ~src:0 ~dst:1
             ~policy:(Policy.with_timeout ~attempts:2 (Time.ms 150))
             (Proto.Echo "lost"))
     with
     | Error `Timeout -> ()
     | Error `Unreachable ->
       Alcotest.fail "shim loss must look like silence, not refusal"
     | Ok _ -> Alcotest.fail "dropped frame was delivered");
    Alcotest.(check int) "both attempts' frames counted dropped" (d0 + 2)
      (T.stats t0).dropped;
    frame_faults h ();
    call_ok h ~dst:1 "clear"

  (* duplicate = 1.0 on a oneway: the envelope rides the wire twice, the
     handler runs twice — the duplication [Policy.idempotent] exists to
     tolerate — and the ledger counts one more envelope and its bytes. *)
  let test_frame_duplicate h =
    let got = recorder h ~node:1 in
    let t0 = H.transport h ~node:0 in
    let s0 = T.stats t0 in
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "twice");
    H.settle h;
    let s1 = T.stats t0 in
    frame_faults h ~seed:12 ~duplicate:1.0 ();
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "twice");
    H.settle h;
    let s2 = T.stats t0 in
    Alcotest.(check int) "handler ran once per wire copy" 3 (List.length !got);
    Alcotest.(check int) "a duplicate is one more envelope" 2
      (s2.sent - s1.sent);
    Alcotest.(check int) "and its bytes"
      (2 * (s1.bytes_sent - s0.bytes_sent))
      (s2.bytes_sent - s1.bytes_sent)

  (* delay > 0 holds envelopes back (on sockets: the deferred write path);
     they must still arrive. *)
  let test_frame_delay h =
    T.set_server (H.transport h ~node:1) 1 echo_handler;
    frame_faults h ~seed:13 ~delay:0.05 ();
    call_ok ~policy:(Policy.with_timeout (Time.sec 2)) h ~dst:1 "late"

  (* A node asking itself never touches the wire, so no frame fault can
     hit it: a home's cache role reaches its own manager role even under
     total loss. *)
  let test_self_call_under_loss h =
    T.set_server (H.transport h ~node:0) 0 echo_handler;
    frame_faults h ~seed:16 ~drop:1.0 ();
    call_ok h ~dst:0 "self"

  (* One seed, one roll order: both links drop exactly the envelopes a
     bare edge with that seed says to drop, and deliver the rest. *)
  let test_same_seed_same_mutilation h =
    let n = 24 and seed = 21 and drop = 0.5 in
    let expected =
      let e = Knet.Edge.create 2 in
      Knet.Edge.set_frame_faults e ~seed ~drop ();
      List.init n (fun _ -> Knet.Edge.fate e ~bytes:0 = Knet.Edge.Lost)
    in
    let got = recorder h ~node:1 in
    let t0 = H.transport h ~node:0 in
    frame_faults h ~seed ~drop ();
    let lost =
      List.init n (fun i ->
          let d0 = (T.stats t0).dropped in
          T.notify t0 ~src:0 ~dst:1 (Proto.Echo (string_of_int i));
          (T.stats t0).dropped > d0)
    in
    H.settle h;
    Alcotest.(check (list bool)) "dropped the seed's envelopes" expected lost;
    Alcotest.(check (list string))
      "delivered the rest"
      (List.filteri (fun i _ -> not (List.nth lost i)) (List.init n string_of_int)
       |> List.sort compare)
      (List.sort compare !got)

  let cases =
    [
      Alcotest.test_case "call/response" `Quick (with_h test_call_response);
      Alcotest.test_case "correlation" `Quick (with_h test_correlation);
      Alcotest.test_case "timeout" `Quick (with_h test_timeout);
      Alcotest.test_case "silent server" `Quick (with_h test_silent_server);
      Alcotest.test_case "retries exhausted" `Quick (with_h test_retries_exhausted);
      Alcotest.test_case "server replacement" `Quick
        (with_h test_server_replacement);
      Alcotest.test_case "oneway" `Quick (with_h test_oneway);
      Alcotest.test_case "server-less arrival" `Quick
        (with_h test_serverless_arrival);
      Alcotest.test_case "batch dispatch" `Quick (with_h test_batch_dispatch);
      Alcotest.test_case "per destination" `Quick
        (with_h test_coalesce_per_destination);
      Alcotest.test_case "singleton stays plain" `Quick
        (with_h test_coalesce_singleton_is_plain);
      Alcotest.test_case "disable flag" `Quick (with_h test_coalescing_disabled);
      Alcotest.test_case "rpc.batch trace event" `Quick
        (with_h test_batch_trace_event);
      Alcotest.test_case "stats accounting" `Quick (with_h test_stats_accounting);
      Alcotest.test_case "partition/heal" `Quick (with_h test_partition_heal);
      Alcotest.test_case "crash/recover" `Quick (with_h test_crash_recover);
      Alcotest.test_case "frame drop" `Quick (with_h test_frame_drop);
      Alcotest.test_case "frame duplicate" `Quick (with_h test_frame_duplicate);
      Alcotest.test_case "frame delay" `Quick (with_h test_frame_delay);
      Alcotest.test_case "self call under total loss" `Quick
        (with_h test_self_call_under_loss);
      Alcotest.test_case "same seed, same envelopes lost" `Quick
        (with_h test_same_seed_same_mutilation);
    ]
end

module Sim_suite = Suite (Sim_harness)
module Unix_suite = Suite (Unix_harness)

(* Socket-only behaviours: genuine peer loss (not injected — the process
   at the far end is really gone), re-dialing and the receive path. These
   reach the raw endpoints, so they live outside the link-generic suite. *)
module Unix_only = struct
  module H = Unix_harness

  let with_h f () =
    let h = H.setup () in
    Fun.protect ~finally:(fun () -> H.teardown h) (fun () -> f h)

  let policy = Policy.with_timeout H.timeout
  let echo_handler ~src:_ ~span:_ req ~reply =
    match req with
    | Proto.Echo s -> reply (Proto.Echoed s)
    | Proto.Silent -> ()

  let set_server_raw ep h = T.set_server (Sockets.pack ep) (Sockets.id ep) h

  let call_ok h msg =
    match
      H.run h ~src:0 (fun () ->
          T.call (H.transport h ~node:0) ~src:0 ~dst:1 ~policy
            (Proto.Echo msg))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "echo" msg s
    | Error `Timeout -> Alcotest.fail "unexpected timeout"
    | Error `Unreachable -> Alcotest.fail "unexpected unreachable"

  (* Satellite regression: a peer that vanished must read as positive
     evidence ([`Unreachable], counted dropped), the dead cached
     connection must be evicted, and a rebind of the same id must make
     the pair whole again without restarting the caller. *)
  let test_peer_vanished_then_rebind h =
    set_server_raw h.H.eps.(1) echo_handler;
    call_ok h "before";
    let d0 = (T.stats (H.transport h ~node:0)).dropped in
    Sockets.close h.H.eps.(1);
    (* the peer is gone: drive node 0 alone (a closed endpoint can't pump) *)
    (match
       Sockets.run_fiber h.H.eps.(0) (fun () ->
           T.call (H.transport h ~node:0) ~src:0 ~dst:1
             ~policy:(Policy.with_timeout ~attempts:2 (Time.ms 200))
             (Proto.Echo "void"))
     with
     | Error `Unreachable -> ()
     | Error `Timeout -> Alcotest.fail "dead peer must be unreachable, not silent"
     | Ok _ -> Alcotest.fail "call reached a closed endpoint");
    let d1 = (T.stats (H.transport h ~node:0)).dropped in
    Alcotest.(check bool) "frames to the dead peer counted dropped" true
      (d1 > d0);
    (* Same id, same socket path: the peer is back. The caller's re-dial
       is backoff-gated, so allow the default several attempts. *)
    h.H.eps.(1) <-
      Sockets.create ~dir:h.H.dir ~id:1
        (Topology.symmetric ~nodes_per_cluster:2 ~clusters:1);
    set_server_raw h.H.eps.(1) echo_handler;
    match
      H.run h ~src:0 (fun () ->
          T.call (H.transport h ~node:0) ~src:0 ~dst:1
            ~policy:(Policy.with_timeout ~attempts:8 (Time.ms 500))
            (Proto.Echo "rebound"))
    with
    | Ok (Proto.Echoed s) -> Alcotest.(check string) "rebound" "rebound" s
    | Error _ -> Alcotest.fail "call failed after peer rebind"

  (* [sever] alone (connections torn, peer alive) must heal on the next
     send: re-dial, not a permanent EPIPE. *)
  let test_sever_reconnects h =
    set_server_raw h.H.eps.(1) echo_handler;
    call_ok h "first";
    Sockets.sever h.H.eps.(0) 1;
    Sockets.sever h.H.eps.(1) 0;
    call_ok h "second"

  (* A peer that dies in the middle of a multi-destination fan-out must
     surface as [`Unreachable] on its own call only: the caller's
     endpoint stays whole and the remaining destinations keep answering.
     This is the transport face of the 2PC decide broadcast — one dead
     participant cannot wedge delivery to the others. Needs three real
     endpoints, so it builds its own fleet instead of [with_h]. *)
  let test_unreachable_mid_fanout () =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ktransport-fanout-%d-%d" (Unix.getpid ())
           (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000))
    in
    Unix.mkdir dir 0o700;
    let topology = Topology.symmetric ~nodes_per_cluster:3 ~clusters:1 in
    let eps = Array.init 3 (fun id -> Sockets.create ~dir ~id topology) in
    Fun.protect
      ~finally:(fun () ->
        Array.iter Sockets.close eps;
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        set_server_raw eps.(1) echo_handler;
        set_server_raw eps.(2) echo_handler;
        let t0 = Sockets.pack eps.(0) in
        let call ~others ~attempts dst msg =
          Sockets.run_fiber ~others eps.(0) (fun () ->
              T.call t0 ~src:0 ~dst
                ~policy:(Policy.with_timeout ~attempts (Time.ms 300))
                (Proto.Echo msg))
        in
        let expect_ok ~others dst msg =
          match call ~others ~attempts:8 dst msg with
          | Ok (Proto.Echoed s) -> Alcotest.(check string) "echo" msg s
          | Error _ -> Alcotest.failf "call to node %d failed" dst
        in
        expect_ok ~others:[ eps.(1); eps.(2) ] 1 "warm-1";
        expect_ok ~others:[ eps.(1); eps.(2) ] 2 "warm-2";
        (* Node 2 really dies — its socket closes and unlinks, no
           injected flag. The next call to it must be positive evidence,
           and node 1 must be entirely unaffected. *)
        Sockets.close eps.(2);
        (match call ~others:[ eps.(1) ] ~attempts:2 2 "void" with
         | Error `Unreachable -> ()
         | Error `Timeout ->
           Alcotest.fail "dead fan-out leg must be unreachable, not silent"
         | Ok _ -> Alcotest.fail "call reached a closed endpoint");
        expect_ok ~others:[ eps.(1) ] 1 "survivor")

  (* Re-dialing draws its backoff jitter from a stream of its own: a dial
     that failed in between must not shift the shim's drop pattern. Node
     0 talks to node 1 and to node 2, node 2 dies, and only then is the
     shim armed (with the endpoint's creation seed, no reseed). *)
  let drop_pattern ~failed_dial =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ktransport-dial-%d-%d" (Unix.getpid ())
           (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000))
    in
    Unix.mkdir dir 0o700;
    let topology = Topology.symmetric ~nodes_per_cluster:3 ~clusters:1 in
    let eps = Array.init 3 (fun id -> Sockets.create ~dir ~id topology) in
    Fun.protect
      ~finally:(fun () ->
        Array.iter Sockets.close eps;
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        set_server_raw eps.(1) echo_handler;
        set_server_raw eps.(2) echo_handler;
        let t0 = Sockets.pack eps.(0) in
        List.iter
          (fun dst ->
            match
              Sockets.run_fiber ~others:[ eps.(1); eps.(2) ] eps.(0) (fun () ->
                  T.call t0 ~src:0 ~dst ~policy (Proto.Echo "warm"))
            with
            | Ok _ -> ()
            | Error _ -> Alcotest.failf "warm-up call to node %d failed" dst)
          [ 1; 2 ];
        Sockets.close eps.(2);
        if failed_dial then begin
          let d0 = (T.stats t0).dropped in
          Sockets.sever eps.(0) 2;
          T.notify t0 ~src:0 ~dst:2 (Proto.Echo "void");
          Alcotest.(check int) "the re-dial failed" (d0 + 1) (T.stats t0).dropped
        end;
        Knet.Edge.set_frame_faults (T.faults t0) ~drop:0.5 ();
        List.init 24 (fun i ->
            let d0 = (T.stats t0).dropped in
            T.notify t0 ~src:0 ~dst:1 (Proto.Echo (string_of_int i));
            (T.stats t0).dropped > d0))

  let test_dial_keeps_off_the_shim () =
    Alcotest.(check (list bool)) "same drops toward node 1"
      (drop_pattern ~failed_dial:false)
      (drop_pattern ~failed_dial:true)

  (* ---- receive path: raw bytes written to a live endpoint's socket ---- *)

  (* One [Oneway (Echo s)] frame from node 0, byte for byte as a peer
     endpoint would write it. *)
  let raw_frame ?(span = 0) s =
    let e = Codec.encoder () in
    Codec.u8 e 3 (* oneway envelope *);
    Codec.u32 e 0 (* src *);
    Codec.int e span;
    Proto.encode_request e (Proto.Echo s);
    let payload = Codec.to_bytes e in
    let header = Bytes.create 4 in
    Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
    Bytes.to_string header ^ Bytes.to_string payload

  let recorder ep =
    let got = ref [] in
    set_server_raw ep (fun ~src:_ ~span:_ req ~reply:_ ->
        match req with Proto.Echo s -> got := s :: !got | Proto.Silent -> ());
    got

  (* Pump every endpoint until [n] messages arrived (or 5 s passed);
     returns them in arrival order. *)
  let await h got n =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while List.length !got < n && Unix.gettimeofday () < deadline do
      Array.iter (fun e -> Sockets.pump ~max_wait:0.01 e) h.H.eps
    done;
    List.rev !got

  (* Connect to node 1's socket as a raw peer and write [pieces] one at a
     time, pumping node 1 between pieces so each lands in its own read. *)
  let write_pieces h pieces =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX (Filename.concat h.H.dir "node-1.sock"));
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        List.iter
          (fun piece ->
            let b = Bytes.of_string piece in
            let rec go off =
              if off < Bytes.length b then
                go (off + Unix.write fd b off (Bytes.length b - off))
            in
            go 0;
            for _ = 1 to 3 do
              Sockets.pump ~max_wait:0.005 h.H.eps.(1)
            done)
          pieces)

  let split s at =
    (String.sub s 0 at, String.sub s at (String.length s - at))

  let test_split_header h =
    let got = recorder h.H.eps.(1) in
    let a, b = split (raw_frame "split-header") 2 in
    write_pieces h [ a; b ];
    Alcotest.(check (list string)) "one intact frame" [ "split-header" ]
      (await h got 1)

  let test_split_payload h =
    let got = recorder h.H.eps.(1) in
    let f = raw_frame "split-payload" in
    let a, rest = split f 7 in
    let b, c = split rest 9 in
    write_pieces h [ a; b; c ];
    Alcotest.(check (list string)) "one intact frame" [ "split-payload" ]
      (await h got 1)

  (* Several buffers' worth of frames in one write: the receive buffer
     must decode, compact and refill across frame boundaries. *)
  let test_many_frames_one_read h =
    let got = recorder h.H.eps.(1) in
    let msgs = List.init 300 (fun i -> Printf.sprintf "m%d-%s" i (String.make (i mod 40) 'z')) in
    write_pieces h [ String.concat "" (List.map raw_frame msgs) ];
    Alcotest.(check (list string)) "all intact, in order" msgs
      (await h got (List.length msgs))

  (* Larger than any fixed 64 KiB read chunk: the buffer has to grow. *)
  let test_frame_over_64k h =
    let got = recorder h.H.eps.(1) in
    let big = String.init 100_000 (fun i -> Char.chr (i mod 251)) in
    let f = raw_frame big ^ raw_frame "after" in
    let pieces =
      List.init
        ((String.length f + 8191) / 8192)
        (fun i -> String.sub f (i * 8192) (min 8192 (String.length f - (i * 8192))))
    in
    write_pieces h pieces;
    match await h got 2 with
    | [ b; a ] ->
      Alcotest.(check int) "big length" (String.length big) (String.length b);
      Alcotest.(check bool) "big intact" true (String.equal big b);
      Alcotest.(check string) "next frame" "after" a
    | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l)

  (* A length prefix no frame can have (the sign bit set) is a corrupt
     stream: the endpoint closes that connection rather than wait forever
     for the frame, and keeps serving everyone else. *)
  let test_corrupt_length_closes h =
    set_server_raw h.H.eps.(1) echo_handler;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX (Filename.concat h.H.dir "node-1.sock"));
        ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
        for _ = 1 to 5 do
          Sockets.pump ~max_wait:0.005 h.H.eps.(1)
        done;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        Alcotest.(check int) "connection closed" 0
          (Unix.read fd (Bytes.create 1) 0 1));
    call_ok h "still serving"

  (* A shim-delayed frame is sent long after the endpoint's encoder has
     moved on to the next frame; it must go out as it was encoded. *)
  let test_deferred_then_other h =
    let got = recorder h.H.eps.(1) in
    let t0 = H.transport h ~node:0 in
    let deferred = String.make 5000 'd' in
    Knet.Edge.set_frame_faults (T.faults t0) ~seed:15 ~delay:0.05 ();
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo deferred);
    Knet.Edge.set_frame_faults (T.faults t0) ();
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "prompt");
    Alcotest.(check (list string)) "both intact"
      (List.sort compare [ deferred; "prompt" ])
      (List.sort compare (await h got 2))

  (* A self-send is delivered later by the engine; the frame encoded right
     after it must not disturb it. *)
  let test_self_send_then_other h =
    let self = recorder h.H.eps.(0) and peer = recorder h.H.eps.(1) in
    let t0 = H.transport h ~node:0 in
    let mine = String.make 3000 's' in
    T.notify t0 ~src:0 ~dst:0 (Proto.Echo mine);
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "theirs");
    Alcotest.(check (list string)) "peer's frame" [ "theirs" ] (await h peer 1);
    Alcotest.(check (list string)) "self-send intact" [ mine ] (await h self 1)

  (* A peer that bound its socket and died leaves the socket file behind,
     and dialing it is refused. Unlike a socket file that does not exist
     yet, that is no reason to wait: the send fails at once (a wait would
     block the whole process), and only the re-dial backoff paces the next
     attempt. A real peer at the path is then reached. *)
  let test_refused_dial_fails_fast h =
    let path = Filename.concat h.H.dir "node-1.sock" in
    Sockets.close h.H.eps.(1);
    let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind stale (Unix.ADDR_UNIX path);
    Unix.close stale;
    let t0 = H.transport h ~node:0 in
    let d0 = (T.stats t0).dropped in
    let start = Unix.gettimeofday () in
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "void");
    let took = Unix.gettimeofday () -. start in
    let dropped = (T.stats t0).dropped in
    (* Binding the real peer replaces the stale file, so the directory
       cleans up even when a check below fails. *)
    h.H.eps.(1) <-
      Sockets.create ~dir:h.H.dir ~id:1
        (Topology.symmetric ~nodes_per_cluster:2 ~clusters:1);
    if took > 0.5 then
      Alcotest.failf "a refused dial blocked the sender for %.2f s" took;
    Alcotest.(check int) "the refused send counted dropped" (d0 + 1) dropped;
    let got = recorder h.H.eps.(1) in
    (* The first re-dial delay is at most the 50 ms backoff base. *)
    Unix.sleepf 0.06;
    T.notify t0 ~src:0 ~dst:1 (Proto.Echo "after");
    Alcotest.(check (list string)) "the real peer is reached" [ "after" ]
      (await h got 1)

  (* A fiber that finishes inside one of [run_fiber]'s engine turns must
     not be followed by a select that waits out its full timeout (10 ms)
     with nothing left to do. Whether a fiber finishes there is a race
     with the wall clock, so run many: 200 fibers that each sleep 1 us take
     a few milliseconds, and about 300 ms when one in seven waits. *)
  let test_run_fiber_returns_when_done h =
    let start = Unix.gettimeofday () in
    for _ = 1 to 200 do
      Sockets.run_fiber h.H.eps.(0) (fun () -> Ksim.Fiber.sleep (Time.us 1))
    done;
    let took = Unix.gettimeofday () -. start in
    if took > 0.1 then
      Alcotest.failf "200 fibers of a 1 us sleep took %.3f s to run" took

  let cases =
    [
      Alcotest.test_case "peer vanished, then rebind" `Quick
        (with_h test_peer_vanished_then_rebind);
      Alcotest.test_case "sever reconnects" `Quick (with_h test_sever_reconnects);
      Alcotest.test_case "unreachable mid-fanout" `Quick
        (fun () -> test_unreachable_mid_fanout ());
      Alcotest.test_case "failed dial keeps off the shim" `Quick
        test_dial_keeps_off_the_shim;
      Alcotest.test_case "recv: header split across reads" `Quick
        (with_h test_split_header);
      Alcotest.test_case "recv: payload split across reads" `Quick
        (with_h test_split_payload);
      Alcotest.test_case "recv: many frames in one read" `Quick
        (with_h test_many_frames_one_read);
      Alcotest.test_case "recv: corrupt length closes connection" `Quick
        (with_h test_corrupt_length_closes);
      Alcotest.test_case "recv: deferred frame, then another" `Quick
        (with_h test_deferred_then_other);
      Alcotest.test_case "recv: frame over 64 KiB" `Quick
        (with_h test_frame_over_64k);
      Alcotest.test_case "recv: self-send, then another" `Quick
        (with_h test_self_send_then_other);
      Alcotest.test_case "refused dial fails fast" `Quick
        (with_h test_refused_dial_fails_fast);
      Alcotest.test_case "run_fiber returns when its fiber is done" `Quick
        (with_h test_run_fiber_returns_when_done);
    ]
end

(* ---- both links count the same frame for the same envelope ---- *)

(* A call and its reply, a oneway, a 3-item coalesced batch and a traced
   call and its reply, sent from node 0 to node 1 over [H]'s link; the
   traffic every ledger of the link counted, as (envelopes, bytes). *)
let traffic (module H : HARNESS) =
  let h = H.setup () in
  Fun.protect
    ~finally:(fun () -> H.teardown h)
    (fun () ->
      let t0 = H.transport h ~node:0 in
      let policy = Policy.with_timeout H.timeout in
      T.set_server (H.transport h ~node:1) 1 (fun ~src:_ ~span:_ req ~reply ->
          match req with
          | Proto.Echo s -> reply (Proto.Echoed s)
          | Proto.Silent -> ());
      List.iter T.reset_stats (H.vantages h);
      let call ?span s =
        match
          H.run h ~src:0 (fun () ->
              T.call t0 ~src:0 ~dst:1 ~policy ?span (Proto.Echo s))
        with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s: call %S failed" H.name s
      in
      call "hello";
      T.notify t0 ~src:0 ~dst:1 (Proto.Echo "oneway");
      H.run h ~src:0 (fun () ->
          List.iter
            (fun s -> T.notify t0 ~src:0 ~dst:1 ~coalesce:true (Proto.Echo s))
            [ "a"; "bb"; "ccc" ]);
      call ~span:77 "traced";
      H.settle h;
      List.fold_left
        (fun (n, b) t ->
          let s = T.stats t in
          (n + s.sent, b + s.bytes_sent))
        (0, 0) (H.vantages h))

let test_links_count_the_same_bytes () =
  let expected =
    let open T.Msg in
    let envelopes =
      [
        Request { id = 0; span = 0; body = Proto.Echo "hello" };
        Response { id = 0; body = Proto.Echoed "hello" };
        Oneway { span = 0; body = Proto.Echo "oneway" };
        Batch
          { items =
              [ (0, Proto.Echo "a"); (0, Proto.Echo "bb"); (0, Proto.Echo "ccc") ] };
        Request { id = 1; span = 77; body = Proto.Echo "traced" };
        Response { id = 1; body = Proto.Echoed "traced" };
      ]
    in
    (List.length envelopes, List.fold_left (fun a m -> a + size_bytes m) 0 envelopes)
  in
  let sim = traffic (module Sim_harness) in
  let unix = traffic (module Unix_harness) in
  Alcotest.(check (pair int int)) "sim: the frames' lengths" expected sim;
  Alcotest.(check (pair int int)) "unix: the frames' lengths" expected unix;
  Alcotest.(check (pair int int)) "same sent and bytes_sent on both links" sim
    unix

let () =
  Alcotest.run "ktransport"
    [
      ("conformance:" ^ Sim_harness.name, Sim_suite.cases);
      ("conformance:" ^ Unix_harness.name, Unix_suite.cases);
      ( "conformance:both",
        [
          Alcotest.test_case "one envelope, one byte count" `Quick
            test_links_count_the_same_bytes;
        ] );
      ("sockets", Unix_only.cases);
    ]
