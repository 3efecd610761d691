(* Ktrace unit tests: span lifecycle, sinks, analysis helpers, metrics,
   Op_ctx deadlines — plus the Error round-trip. *)

module Trace = Ktrace.Trace
module Op_ctx = Ktrace.Op_ctx
module Metrics = Ktrace.Metrics
module Error = Khazana.Error

(* Every test resets the global sink registry so ordering between tests
   cannot leak state. *)
let with_ring f =
  Trace.reset ();
  let ring = Trace.Ring.create () in
  let sink = Trace.Ring.install ring in
  Fun.protect ~finally:(fun () -> Trace.uninstall sink; Trace.reset ())
    (fun () -> f ring)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_disabled_is_null () =
  Trace.reset ();
  let engine = Ksim.Engine.create () in
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let s = Trace.root ~engine "op" in
  Alcotest.(check bool) "null root" true (Trace.is_null s);
  let c = Trace.child ~engine ~parent:s "inner" in
  Alcotest.(check bool) "null child" true (Trace.is_null c);
  (* All emitters are no-ops without a sink. *)
  Trace.finish ~engine s;
  Trace.event ~engine "ev";
  Alcotest.(check int) "wire id is 0" 0 (Trace.id s)

let test_nesting_and_timestamps () =
  with_ring @@ fun ring ->
  let engine = Ksim.Engine.create () in
  let root = Trace.root ~engine ~node:1 "op" in
  Alcotest.(check bool) "live span" false (Trace.is_null root);
  (* Drive nested spans from fibers so starts/finishes interleave over
     simulated time. *)
  Ksim.Fiber.spawn engine (fun () ->
      Trace.with_span ~engine ~node:1 ~parent:root "phase-a" (fun a ->
          Ksim.Fiber.sleep (Ksim.Time.ms 5);
          Trace.with_span ~engine ~node:2 ~parent:a "phase-a.inner"
            (fun _ -> Ksim.Fiber.sleep (Ksim.Time.ms 3)));
      Trace.with_span ~engine ~node:1 ~parent:root "phase-b" (fun _ ->
          Ksim.Fiber.sleep (Ksim.Time.ms 2)));
  Ksim.Engine.run engine;
  Trace.finish ~engine root;
  let records = Trace.Ring.records ring in
  let infos = Trace.spans records in
  Alcotest.(check int) "four spans" 4 (List.length infos);
  let by_name n =
    match Trace.find_spans records ~name:n with
    | [ s ] -> s
    | l -> Alcotest.failf "%d spans named %s" (List.length l) n
  in
  let a = by_name "phase-a" and inner = by_name "phase-a.inner"
  and b = by_name "phase-b" and r = by_name "op" in
  (* Parentage. *)
  Alcotest.(check int) "a under root" r.Trace.span_id a.Trace.span_parent;
  Alcotest.(check int) "inner under a" a.Trace.span_id inner.Trace.span_parent;
  Alcotest.(check (list int)) "ancestor chain"
    [ a.Trace.span_id; r.Trace.span_id ]
    (Trace.ancestors infos inner.Trace.span_id);
  Alcotest.(check bool) "descendant" true
    (Trace.is_descendant infos ~ancestor:r.Trace.span_id inner.Trace.span_id);
  Alcotest.(check bool) "b not under a" false
    (Trace.is_descendant infos ~ancestor:a.Trace.span_id b.Trace.span_id);
  (* Simulated-time durations. *)
  let dur s =
    match s.Trace.span_finish with
    | Some f -> f - s.Trace.span_start
    | None -> Alcotest.failf "span %s never closed" s.Trace.span_name
  in
  Alcotest.(check int) "a spans 8ms" (Ksim.Time.ms 8) (dur a);
  Alcotest.(check int) "inner spans 3ms" (Ksim.Time.ms 3) (dur inner);
  Alcotest.(check bool) "b starts after a ends" true
    (b.Trace.span_start >= a.Trace.span_start + dur a);
  (* Start order in the stream follows simulated time. *)
  let names = List.map (fun s -> s.Trace.span_name) infos in
  Alcotest.(check (list string)) "start order"
    [ "op"; "phase-a"; "phase-a.inner"; "phase-b" ] names

let test_null_parent_makes_root () =
  with_ring @@ fun ring ->
  let engine = Ksim.Engine.create () in
  let s = Trace.child ~engine ~parent:Trace.null "background-op" in
  Trace.finish ~engine s;
  match Trace.spans (Trace.Ring.records ring) with
  | [ info ] -> Alcotest.(check int) "fresh root" 0 info.Trace.span_parent
  | l -> Alcotest.failf "%d spans" (List.length l)

let test_events_under () =
  with_ring @@ fun ring ->
  let engine = Ksim.Engine.create () in
  let root = Trace.root ~engine "op" in
  let child = Trace.child ~engine ~parent:root "step" in
  Trace.event ~engine ~span:child "deep.event";
  Trace.event ~engine "unattached.event";
  Trace.finish ~engine child;
  Trace.finish ~engine root;
  let records = Trace.Ring.records ring in
  let under =
    Trace.events_under records ~ancestor:(Trace.id root)
    |> List.filter_map (function Trace.Event { name; _ } -> Some name | _ -> None)
  in
  Alcotest.(check (list string)) "subtree events" [ "deep.event" ] under

let test_ring_capacity () =
  Trace.reset ();
  let ring = Trace.Ring.create ~capacity:4 () in
  let sink = Trace.Ring.install ring in
  let engine = Ksim.Engine.create () in
  for i = 0 to 9 do
    Trace.event ~engine ~attrs:[ ("i", string_of_int i) ] "tick"
  done;
  Trace.uninstall sink;
  Trace.reset ();
  let records = Trace.Ring.records ring in
  Alcotest.(check int) "bounded" 4 (List.length records);
  let idx = function
    | Trace.Event { attrs; _ } -> List.assoc "i" attrs
    | _ -> Alcotest.fail "not an event"
  in
  Alcotest.(check (list string)) "keeps newest, oldest first"
    [ "6"; "7"; "8"; "9" ] (List.map idx records)

let test_text_sinks_smoke () =
  Trace.reset ();
  let pretty = Buffer.create 256 and jsonl = Buffer.create 256 in
  let pp = Format.formatter_of_buffer pretty
  and pj = Format.formatter_of_buffer jsonl in
  let s1 = Trace.install (Trace.pretty_sink pp) in
  let s2 = Trace.install (Trace.jsonl_sink pj) in
  let engine = Ksim.Engine.create () in
  Trace.with_span ~engine ~node:3 ~attrs:[ ("k", "v\"q") ] ~parent:Trace.null
    "demo.op" (fun span -> Trace.event ~engine ~span "demo.event");
  Format.pp_print_flush pp ();
  Format.pp_print_flush pj ();
  Trace.uninstall s1;
  Trace.uninstall s2;
  Trace.reset ();
  let p = Buffer.contents pretty and j = Buffer.contents jsonl in
  Alcotest.(check bool) "pretty names the span" true
    (contains p "demo.op");
  Alcotest.(check bool) "jsonl names the event" true
    (contains j "\"demo.event\"");
  (* Three records, one JSON object per line. *)
  let lines = String.split_on_char '\n' (String.trim j) in
  Alcotest.(check int) "jsonl line per record" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_phase_breakdown () =
  with_ring @@ fun ring ->
  let engine = Ksim.Engine.create () in
  Ksim.Fiber.spawn engine (fun () ->
      for _ = 1 to 3 do
        Trace.with_span ~engine ~parent:Trace.null "long" (fun _ ->
            Ksim.Fiber.sleep (Ksim.Time.ms 10))
      done;
      Trace.with_span ~engine ~parent:Trace.null "short" (fun _ ->
          Ksim.Fiber.sleep (Ksim.Time.ms 1)));
  Ksim.Engine.run engine;
  match Trace.phase_breakdown (Trace.Ring.records ring) with
  | [ ("long", 3, long_ms); ("short", 1, short_ms) ] ->
    Alcotest.(check (float 1e-6)) "30ms total" 30.0 long_ms;
    Alcotest.(check (float 1e-6)) "1ms total" 1.0 short_ms
  | l ->
    Alcotest.failf "unexpected breakdown (%d rows)" (List.length l)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "lock.grant";
  Metrics.incr m ~by:2 "lock.grant";
  Metrics.incr m "lock.reject";
  Metrics.observe m "lock.ms" 4.0;
  Metrics.observe m "lock.ms" 6.0;
  Alcotest.(check (list (pair string int))) "counters sorted"
    [ ("lock.grant", 3); ("lock.reject", 1) ]
    (Metrics.counters m);
  (match Metrics.summaries m with
   | [ ("lock.ms", s) ] ->
     Alcotest.(check (float 1e-6)) "mean" 5.0 (Kutil.Stats.Histogram.mean s)
   | _ -> Alcotest.fail "summaries");
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (List.length (Metrics.counters m))

(* A summary is a fixed-size histogram: a node that observes every lock
   keeps a registry of constant size however long it runs. *)
let test_metrics_bounded () =
  let m = Metrics.create () in
  let observe n =
    for i = 1 to n do
      Metrics.observe m "lock.ms" (float_of_int (i mod 4099) *. 0.37)
    done
  in
  observe 1_000;
  let words = Obj.reachable_words (Obj.repr m) in
  observe 999_000;
  Alcotest.(check int) "same size after 10^6 observations" words
    (Obj.reachable_words (Obj.repr m));
  match Metrics.summaries m with
  | [ ("lock.ms", s) ] ->
    Alcotest.(check int) "count" 1_000_000 (Kutil.Stats.Histogram.count s)
  | _ -> Alcotest.fail "summaries"

let test_op_ctx_deadline () =
  let ctx = Op_ctx.make ~deadline:(Ksim.Time.ms 10) 7 in
  Alcotest.(check int) "principal" 7 (Op_ctx.principal ctx);
  (match Op_ctx.remaining ctx ~now:(Ksim.Time.ms 4) with
   | Some left -> Alcotest.(check int) "6ms left" (Ksim.Time.ms 6) left
   | None -> Alcotest.fail "deadline lost");
  Alcotest.(check bool) "not expired" false
    (Op_ctx.expired ctx ~now:(Ksim.Time.ms 9));
  Alcotest.(check bool) "expired" true
    (Op_ctx.expired ctx ~now:(Ksim.Time.ms 11));
  (* No deadline: never expires. *)
  Alcotest.(check bool) "background unbounded" false
    (Op_ctx.expired Op_ctx.background ~now:max_int);
  (* with_span keeps principal and deadline. *)
  let ctx' = Op_ctx.with_span ctx Trace.null in
  Alcotest.(check int) "with_span principal" 7 (Op_ctx.principal ctx');
  Alcotest.(check (option int)) "with_span deadline"
    (Some (Ksim.Time.ms 10)) (Op_ctx.deadline ctx')

(* Satellite: one error type from one place, total to_string, and a parser
   that inverts it. *)
let test_error_round_trip () =
  let cases : Error.t list =
    [ `Timeout; `Unreachable; `Unavailable "no quorum"; `Access_denied;
      `Not_allocated;
      `Bad_range; `Conflict "overlapping reservation"; `Rpc "bad response" ]
  in
  List.iter
    (fun e ->
      let s = Error.to_string e in
      Alcotest.(check bool) "non-empty rendering" true (String.length s > 0);
      match Error.of_string s with
      | Some e' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" s)
          true (e = e')
      | None -> Alcotest.failf "of_string failed on %S" s)
    cases;
  Alcotest.(check (option string)) "garbage rejected" None
    (Option.map Error.to_string (Error.of_string "definitely not an error"))

let () =
  Alcotest.run "ktrace"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled means null" `Quick test_disabled_is_null;
          Alcotest.test_case "nesting and timestamps" `Quick
            test_nesting_and_timestamps;
          Alcotest.test_case "null parent makes root" `Quick
            test_null_parent_makes_root;
          Alcotest.test_case "events under ancestor" `Quick test_events_under;
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
          Alcotest.test_case "text sinks" `Quick test_text_sinks_smoke;
          Alcotest.test_case "phase breakdown" `Quick test_phase_breakdown;
        ] );
      ( "metrics",
        [ Alcotest.test_case "counters and summaries" `Quick test_metrics;
          Alcotest.test_case "summaries stay bounded" `Quick
            test_metrics_bounded ] );
      ( "op-ctx",
        [ Alcotest.test_case "deadline arithmetic" `Quick test_op_ctx_deadline ] );
      ( "error",
        [ Alcotest.test_case "string round-trip" `Quick test_error_round_trip ] );
    ]
