(* A web-cache-style consumer of weak consistency.

   The paper motivates relaxed protocols with "applications such as web
   caches ... [that] typically can tolerate data that is temporarily
   out-of-date (i.e., one or two versions old) as long as they get fast
   response". An origin node republishes a page; edge nodes in another
   cluster serve reads from their local replica under three protocols.
   The latency/staleness tradeoff is printed side by side.

   Run with: dune exec examples/web_cache.exe *)

module System = Khazana.System
module Client = Khazana.Client
module Region = Khazana.Region
module Attr = Khazana.Attr

let ok = function
  | Ok v -> v
  | Error e -> failwith (Khazana.Daemon.error_to_string e)

let run_protocol level =
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let origin = System.client sys 1 () in
  let edges = List.map (fun n -> System.client sys n ()) [ 3; 4; 5 ] in
  let attr = Attr.make ~owner:1 ~level () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region origin ~attr 4096) in
        ok (Client.write_bytes origin ~addr:r.Region.base (Bytes.of_string "v000"));
        (* Warm every edge cache. *)
        List.iter
          (fun e -> ignore (ok (Client.read_bytes e ~addr:r.Region.base 4)))
          edges;
        r)
  in
  let addr = region.Region.base in
  let read_latency = Kutil.Stats.summary () in
  let stale_now = ref 0 and stale_settled = ref 0 and per_kind = ref 0 in
  let current = ref "v000" in
  let sample counter =
    List.iter
      (fun e ->
        let t0 = System.now sys in
        let b = ok (Client.read_bytes e ~addr 4) in
        Kutil.Stats.add read_latency (Ksim.Time.to_ms_f (System.now sys - t0));
        incr per_kind;
        if Bytes.to_string b <> !current then incr counter)
      edges
  in
  System.run_fiber sys (fun () ->
      for version = 1 to 20 do
        (* Origin republishes. *)
        let v = Printf.sprintf "v%03d" version in
        ok (Client.write_bytes origin ~addr (Bytes.of_string v));
        current := v;
        (* Edges read immediately (worst case), then again 200ms later. *)
        sample stale_now;
        Ksim.Fiber.sleep (Ksim.Time.ms 200);
        sample stale_settled
      done);
  let reads_per_kind = !per_kind / 2 in
  let stats = Khazana.Wire.Transport.stats (System.transport sys) in
  ( Attr.level_to_string level,
    Kutil.Stats.mean read_latency,
    100.0 *. float_of_int !stale_now /. float_of_int reads_per_kind,
    100.0 *. float_of_int !stale_settled /. float_of_int reads_per_kind,
    stats.sent )

let () =
  Printf.printf
    "origin republishes a page 20x; 3 WAN edge caches read right after each update\n\n";
  let table = Kutil.Stats.table
      ~columns:
        [ "consistency"; "read mean (ms)"; "stale: immediate %";
          "stale: +200ms %"; "messages" ]
  in
  List.iter
    (fun level ->
      let name, mean, stale_now, stale_settled, msgs = run_protocol level in
      Kutil.Stats.row table
        [ name; Printf.sprintf "%.2f" mean; Printf.sprintf "%.1f" stale_now;
          Printf.sprintf "%.1f" stale_settled; string_of_int msgs ])
    [ Attr.Strict; Attr.Release; Attr.Eventual ];
  print_endline (Kutil.Stats.render table);
  print_endline
    "\nstrict (CREW) reads are never stale but pay WAN round-trips after every\n\
     update; release pushes updates on unlock (fast reads, small windows of\n\
     staleness); eventual serves purely locally and batches propagation."
