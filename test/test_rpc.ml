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
  (eng, R.create eng topo)

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
  let eng, rpc = mk () in
  echo_server rpc 1;
  let result = in_fiber eng (fun () -> R.call rpc ~src:0 ~dst:1 (Proto.Echo "hi")) in
  match result with
  | Ok (Proto.Echoed s) -> Alcotest.(check string) "echo" "hi" s
  | Error _ -> Alcotest.fail "unexpected error"

let test_concurrent_calls_correlate () =
  let eng, rpc = mk () in
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
  let eng, rpc = mk () in
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
  let eng, rpc = mk () in
  echo_server rpc 3;
  Knet.Edge.partition (R.faults rpc) [ 0 ] [ 3 ];
  (* Heal while the second attempt is pending. *)
  ignore
    (Ksim.Engine.schedule eng ~after:(Time.ms 150) (fun () ->
         Knet.Edge.heal (R.faults rpc)));
  let result =
    in_fiber eng (fun () ->
        R.call rpc ~src:0 ~dst:3
          ~policy:(Krpc.Policy.with_timeout ~attempts:5 (Time.ms 100))
          (Proto.Echo "retry"))
  in
  match result with
  | Ok (Proto.Echoed s) -> Alcotest.(check string) "retried ok" "retry" s
  | Error _ -> Alcotest.fail "should succeed after heal"

let test_notify () =
  let eng, rpc = mk () in
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
  let eng, rpc = mk () in
  let got = ref [] in
  oneway_server rpc 1 got;
  let s0 = R.stats rpc in
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "a");
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "b");
  R.notify rpc ~src:0 ~dst:1 ~coalesce:true (Proto.Echo "c");
  Ksim.Engine.run eng;
  let s1 = R.stats rpc in
  Alcotest.(check (list string)) "all delivered, send order" [ "a"; "b"; "c" ]
    (List.rev !got);
  Alcotest.(check int) "one envelope" 1 (s1.Knet.Edge.sent - s0.Knet.Edge.sent);
  Alcotest.(check int) "three logical messages" 3
    (s1.Knet.Edge.atoms - s0.Knet.Edge.atoms)

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
          Alcotest.test_case "notify" `Quick test_notify;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "same-tick batch" `Quick test_coalesce_batches_same_tick;
          Alcotest.test_case "envelope economics" `Quick
            test_batch_envelope_cheaper_than_oneways;
        ] );
    ]
