(* Tests for the request/response layer: correlation, timeout, retry,
   one-way messages. *)

module Time = Ksim.Time
module Topology = Knet.Topology

module Proto = struct
  type request = Echo of string | Slow of Time.t
  type response = Echoed of string

  module Codec = Kutil.Codec

  let request_kind = function Echo _ -> "echo" | Slow _ -> "slow"

  let encode_request enc = function
    | Echo s ->
      Codec.u8 enc 0;
      Codec.string enc s
    | Slow d ->
      Codec.u8 enc 1;
      Codec.int enc d

  let decode_request dec =
    match Codec.read_u8 dec with
    | 0 -> Echo (Codec.read_string dec)
    | 1 -> Slow (Codec.read_int dec)
    | n -> raise (Codec.Decode_error (Printf.sprintf "Proto.request: %d" n))

  let encode_response enc (Echoed s) = Codec.string enc s
  let decode_response dec = Echoed (Codec.read_string dec)
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

(* Sizes are encoded frame lengths: a batch pays one prefix, tag and src
   for all its items. *)
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

(* ---- the frame ---- *)

let frame ~src msg =
  let enc = Kutil.Codec.encoder () in
  R.Msg.encode_frame enc ~src msg;
  Kutil.Codec.to_bytes enc

let decode frame =
  let n = R.Msg.payload_length frame 0 in
  Alcotest.(check int) "prefix holds the payload length"
    (Bytes.length frame - R.Msg.frame_prefix) n;
  let dec = Kutil.Codec.decoder_sub frame ~off:R.Msg.frame_prefix ~len:n in
  let decoded =
    R.Msg.decode_payload ~request:Proto.decode_request
      ~response:Proto.decode_response dec
  in
  Alcotest.(check int) "payload consumed" 0 (Kutil.Codec.remaining dec);
  decoded

(* Every envelope shape decodes to itself and its sender, and what the
   simulated link counts for it is exactly its frame's length. *)
let test_frame_round_trip () =
  let shapes =
    [
      R.Msg.Request { id = 0; span = 0; body = Proto.Echo "" };
      R.Msg.Request { id = 41; span = 7; body = Proto.Slow (Time.ms 3) };
      R.Msg.Response { id = 41; body = Proto.Echoed "pong" };
      R.Msg.Oneway { span = 0; body = Proto.Echo "one" };
      R.Msg.Oneway { span = 9; body = Proto.Echo "traced" };
      R.Msg.Batch { items = [] };
      R.Msg.Batch
        { items =
            [ (0, Proto.Echo "a"); (3, Proto.Slow 5); (0, Proto.Echo "c") ] };
    ]
  in
  List.iteri
    (fun i msg ->
      let src = 5 + i in
      let f = frame ~src msg in
      Alcotest.(check int) "size_bytes is the frame length" (Bytes.length f)
        (R.Msg.size_bytes msg);
      Alcotest.(check (option int)) "src peeked without decoding" (Some src)
        (R.Msg.payload_src f ~off:R.Msg.frame_prefix
           ~len:(Bytes.length f - R.Msg.frame_prefix));
      let src', msg' = decode f in
      Alcotest.(check int) "sender" src src';
      Alcotest.(check bool) (Printf.sprintf "shape %d round-trips" i) true
        (msg = msg'))
    shapes;
  (* The span word is always on the wire: tracing costs no bytes. *)
  Alcotest.(check int) "traced and untraced oneways are the same size"
    (R.Msg.size_bytes (R.Msg.Oneway { span = 0; body = Proto.Echo "x" }))
    (R.Msg.size_bytes (R.Msg.Oneway { span = 12345; body = Proto.Echo "x" }))

let test_frame_rejects_unknown_tag () =
  let f = frame ~src:1 (R.Msg.Oneway { span = 0; body = Proto.Echo "x" }) in
  Bytes.set_uint8 f R.Msg.frame_prefix 99;
  match decode f with
  | _ -> Alcotest.fail "decoded a frame with an unknown tag"
  | exception Kutil.Codec.Decode_error _ -> ()

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
      ( "frame",
        [
          Alcotest.test_case "every envelope round-trips" `Quick
            test_frame_round_trip;
          Alcotest.test_case "unknown tag" `Quick test_frame_rejects_unknown_tag;
        ] );
    ]
