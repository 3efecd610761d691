(* E5 — Pluggable consistency protocols (§2, §3.3).

   "A variety of consistency protocols can be implemented ... to suit
   various application needs." The same read/write workload runs under
   CREW, release and eventual consistency; strictness costs latency and
   messages, weakness costs freshness. *)

open Bench_common

let rounds = 25

let run_protocol (label, attr) =
  ignore (label : string);
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let writer = System.client sys 1 () in
  let readers = List.map (fun n -> (n, System.client sys n ())) [ 2; 3; 4; 5 ] in

  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region writer ~attr 4096) in
        ok (Client.write_bytes writer ~addr:r.Region.base (Bytes.of_string "00000000"));
        List.iter
          (fun (_, c) -> ignore (ok (Client.read_bytes c ~addr:r.Region.base 8)))
          readers;
        r)
  in
  let addr = region.Region.base in
  let wlat = Stats.summary () and rlat = Stats.summary () in
  let stale = ref 0 and reads = ref 0 in
  let current = ref "00000000" in
  let msgs_before = (Khazana.Wire.Transport.stats (System.transport sys)).sent in
  System.run_fiber sys (fun () ->
      for i = 1 to rounds do
        let v = Printf.sprintf "%08d" i in
        let (), ms = timed sys (fun () -> ok (Client.write_bytes writer ~addr (Bytes.of_string v))) in
        Stats.add wlat ms;
        current := v;
        (* Readers run shortly after the write: long enough for eager
           (per-release) propagation to land, not for lazy anti-entropy. *)
        Ksim.Fiber.sleep (Ksim.Time.ms 40);
        List.iter
          (fun (_, c) ->
            let b, ms = timed sys (fun () -> ok (Client.read_bytes c ~addr 8)) in
            Stats.add rlat ms;
            incr reads;
            if Bytes.to_string b <> !current then incr stale)
          readers;
        Ksim.Fiber.sleep (Ksim.Time.ms 20)
      done);
  let msgs = (Khazana.Wire.Transport.stats (System.transport sys)).sent - msgs_before in
  ( label,
    Stats.mean wlat,
    Stats.mean rlat,
    100.0 *. float_of_int !stale /. float_of_int !reads,
    float_of_int msgs /. float_of_int (rounds * 5) )

let run () =
  header "E5: one workload, four consistency protocols"
    "1 writer + 4 readers (two across a WAN), 25 update rounds.";
  let table =
    Stats.table
      ~columns:
        [ "protocol"; "write mean (ms)"; "read mean (ms)"; "stale reads %";
          "msgs/op" ]
  in
  List.iter
    (fun proto ->
      let name, w, r, s, m = run_protocol proto in
      Stats.row table [ name; f2 w; f2 r; f1 s; f1 m ])
    [
      ("strict (crew)", Attr.make ~owner:1 ~level:Attr.Strict ());
      ("release", Attr.make ~owner:1 ~level:Attr.Release ());
      ("eventual", Attr.make ~owner:1 ~level:Attr.Eventual ());
      ("write-shared", Attr.make ~owner:1 ~protocol:"wshared" ());
    ];
  print_table table;
  print_endline
    "\n(strict: invalidation-based CREW; release: update-on-unlock with a write\n\
     token; eventual: local grants, anti-entropy fan-out — the paper's web-cache\n\
     regime; write-shared: concurrent writers, byte-range diff merging)"
