(* Tests for the request/response layer: correlation, timeout, retry,
   one-way messages. *)

module Time = Ksim.Time
module Topology = Knet.Topology

module Proto = struct
  type request = Echo of string | Slow of Time.t
  type response = Echoed of string

  let request_size = function
    | Echo s -> 16 + String.length s
    | Slow _ -> 24

  let response_size (Echoed s) = 16 + String.length s
  let request_kind = function Echo _ -> "echo" | Slow _ -> "slow"
end

module R = Krpc.Rpc.Make (Proto)

let mk ?(seed = 1) () =
  let eng = Ksim.Engine.create ~seed () in
  let topo = Topology.symmetric ~nodes_per_cluster:3 ~clusters:2 in
  let rpc, net = R.sim eng topo in
  (eng, rpc, net)

let echo_server rpc node =
  R.set_server rpc node (fun ~src:_ ~span:_ req ~reply ->
      match req with
      | Proto.Echo s -> reply (Proto.Echoed s)
      | Proto.Slow d ->
        Ksim.Fiber.spawn (R.engine rpc) (fun () ->
            Ksim.Fiber.sleep d;
            reply (Proto.Echoed "slow")))

let in_fiber eng f =
  let result = ref None in
  Ksim.Fiber.spawn eng (fun () -> result := Some (f ()));
  Ksim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "fiber did not finish"

let test_call_response () =
  let eng, rpc, _ = mk () in
  echo_server rpc 1;
  let result = in_fiber eng (fun () -> R.call rpc ~src:0 ~dst:1 (Proto.Echo "hi")) in
  match result with
  | Ok (Proto.Echoed s) -> Alcotest.(check string) "echo" "hi" s
  | Error _ -> Alcotest.fail "unexpected error"

let test_concurrent_calls_correlate () =
  let eng, rpc, _ = mk () in
  echo_server rpc 1;
  echo_server rpc 3;
  let results = ref [] in
  for i = 0 to 4 do
    Ksim.Fiber.spawn eng (fun () ->
        let dst = if i mod 2 = 0 then 1 else 3 in
        match R.call rpc ~src:0 ~dst (Proto.Echo (string_of_int i)) with
        | Ok (Proto.Echoed s) -> results := (i, s) :: !results
        | Error _ -> ())
  done;
  Ksim.Engine.run eng;
  let sorted = List.sort compare !results in
  Alcotest.(check (list (pair int string)))
    "each call got its own answer"
    [ (0, "0"); (1, "1"); (2, "2"); (3, "3"); (4, "4") ]
    sorted

let test_timeout () =
  let eng, rpc, _ = mk () in
  echo_server rpc 1;
  let result =
    in_fiber eng (fun () ->
        R.call rpc ~src:0 ~dst:1
          ~policy:(Krpc.Policy.with_timeout (Time.ms 50))
          (Proto.Slow (Time.ms 500)))
  in
  Alcotest.(check bool) "timed out" true (result = Error `Timeout);
  (* The late reply must not confuse later calls. *)
  let r2 = in_fiber eng (fun () -> R.call rpc ~src:0 ~dst:1 (Proto.Echo "after")) in
  match r2 with
  | Ok (Proto.Echoed s) -> Alcotest.(check string) "later call fine" "after" s
  | Error _ -> Alcotest.fail "later call failed"

let test_retry_succeeds_after_partition_heals () =
  let eng, rpc, net = mk () in
  echo_server rpc 3;
  R.Net.partition net [ 0 ] [ 3 ];
  (* Heal while the second attempt is pending. *)
  ignore (Ksim.Engine.schedule eng ~after:(Time.ms 150) (fun () -> R.Net.heal net));
  let result =
    in_fiber eng (fun () ->
        R.call rpc ~src:0 ~dst:3
          ~policy:(Krpc.Policy.with_timeout ~attempts:5 (Time.ms 100))
          (Proto.Echo "retry"))
  in
  match result with
  | Ok (Proto.Echoed s) -> Alcotest.(check string) "retried ok" "retry" s
  | Error _ -> Alcotest.fail "should succeed after heal"

let test_retries_exhausted () =
  let eng, rpc, net = mk () in
  R.Net.crash net 1;
  let result =
    in_fiber eng (fun () ->
        R.call rpc ~src:0 ~dst:1
          ~policy:(Krpc.Policy.with_timeout ~attempts:3 (Time.ms 20))
          (Proto.Echo "x"))
  in
  Alcotest.(check bool) "exhausted" true (result = Error `Timeout);
  Alcotest.(check int) "no leaked pending calls" 0 (R.pending_calls rpc)

let test_notify () =
  let eng, rpc, _ = mk () in
  let got = ref [] in
  R.set_server rpc 1 (fun ~src ~span:_ req ~reply:_ ->
      match req with
      | Proto.Echo s -> got := (src, s) :: !got
      | Proto.Slow _ -> ());
  R.notify rpc ~src:2 ~dst:1 (Proto.Echo "oneway");
  Ksim.Engine.run eng;
  Alcotest.(check (list (pair int string))) "oneway delivered" [ (2, "oneway") ] !got

(* --------------------------- Coalescing ---------------------------- *)

let oneway_server rpc node got =
  R.set_server rpc node (fun ~src:_ ~span:_ req ~reply:_ ->
      match req with
      | Proto.Echo s -> got := s :: !got
      | Proto.Slow _ -> ())

let test_coalesce_batches_same_tick () =
  let eng, rpc, net = mk () in
  let got = ref [] in
  oneway_server rpc 1 got;
  let s0 = R.Net.stats net in
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "a");
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "b");
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "c");
  Ksim.Engine.run eng;
  let s1 = R.Net.stats net in
  Alcotest.(check (list string)) "all delivered, send order" [ "a"; "b"; "c" ]
    (List.rev !got);
  Alcotest.(check int) "one envelope" 1 (s1.Knet.Network.sent - s0.Knet.Network.sent);
  Alcotest.(check int) "three logical messages" 3
    (s1.Knet.Network.atoms - s0.Knet.Network.atoms)

let test_coalesce_per_destination () =
  let eng, rpc, net = mk () in
  let got1 = ref [] and got3 = ref [] in
  oneway_server rpc 1 got1;
  oneway_server rpc 3 got3;
  let s0 = R.Net.stats net in
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "x");
  R.notify rpc ~src:0 ~dst:3 ~coalesce:true (Proto.Echo "y");
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "z");
  Ksim.Engine.run eng;
  let s1 = R.Net.stats net in
  Alcotest.(check (list string)) "dst 1 got both" [ "x"; "z" ] (List.rev !got1);
  Alcotest.(check (list string)) "dst 3 got its one" [ "y" ] !got3;
  (* One batch to node 1, one plain oneway to node 3. *)
  Alcotest.(check int) "two envelopes" 2 (s1.Knet.Network.sent - s0.Knet.Network.sent)

let test_coalesce_singleton_is_plain_oneway () =
  let eng, rpc, net = mk () in
  let got = ref [] in
  oneway_server rpc 1 got;
  let s0 = R.Net.stats net in
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "solo");
  Ksim.Engine.run eng;
  let coalesced_bytes =
    (R.Net.stats net).Knet.Network.bytes_sent - s0.Knet.Network.bytes_sent
  in
  let s1 = R.Net.stats net in
  R.notify rpc ~src:0 ~dst:1 (Proto.Echo "solo");
  Ksim.Engine.run eng;
  let plain_bytes =
    (R.Net.stats net).Knet.Network.bytes_sent - s1.Knet.Network.bytes_sent
  in
  Alcotest.(check (list string)) "both delivered" [ "solo"; "solo" ] !got;
  Alcotest.(check int) "a batch of one costs exactly a oneway" plain_bytes
    coalesced_bytes

let test_coalescing_disabled () =
  let eng, rpc, net = mk () in
  let got = ref [] in
  oneway_server rpc 1 got;
  R.set_coalescing rpc false;
  let s0 = R.Net.stats net in
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "a");
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "b");
  Ksim.Engine.run eng;
  let s1 = R.Net.stats net in
  (* Separate envelopes may reorder under link jitter. *)
  Alcotest.(check (list string)) "delivered" [ "a"; "b" ]
    (List.sort compare !got);
  Alcotest.(check int) "one envelope per message" 2 (s1.Knet.Network.sent - s0.Knet.Network.sent)

let test_batch_envelope_cheaper_than_oneways () =
  let batch =
    R.Msg.Batch { items = [ (0, Proto.Echo "aa"); (0, Proto.Echo "bb") ] }
  in
  let oneways =
    R.Msg.size_bytes (R.Msg.Oneway { span = 0; body = Proto.Echo "aa" })
    + R.Msg.size_bytes (R.Msg.Oneway { span = 0; body = Proto.Echo "bb" })
  in
  Alcotest.(check bool) "batch saves header bytes" true
    (R.Msg.size_bytes batch < oneways);
  Alcotest.(check (list string)) "batch kinds are per item" [ "echo"; "echo" ]
    (R.Msg.kinds batch)

let () =
  Alcotest.run "krpc"
    [
      ( "rpc",
        [
          Alcotest.test_case "call/response" `Quick test_call_response;
          Alcotest.test_case "correlation" `Quick test_concurrent_calls_correlate;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "retry across partition" `Quick
            test_retry_succeeds_after_partition_heals;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
          Alcotest.test_case "notify" `Quick test_notify;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "same-tick batch" `Quick test_coalesce_batches_same_tick;
          Alcotest.test_case "per destination" `Quick test_coalesce_per_destination;
          Alcotest.test_case "singleton stays plain" `Quick
            test_coalesce_singleton_is_plain_oneway;
          Alcotest.test_case "disable flag" `Quick test_coalescing_disabled;
          Alcotest.test_case "envelope economics" `Quick
            test_batch_envelope_cheaper_than_oneways;
        ] );
    ]
