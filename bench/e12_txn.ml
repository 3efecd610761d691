(* E12 — Distributed atomic commit cost (2PC over the WAL).

   A transaction touching P regions homed on P distinct nodes pays one
   prepare round (parallel, pipelined with the payload) plus one logged
   decision, then one decide per participant that also carries its
   write-through. Measure client-visible commit latency as P grows,
   against the non-atomic baseline of P sequential write_bytes, each with
   its own write-through — the price of all-or-nothing over best-effort. *)

open Bench_common

let txns_per_point = 20

let run () =
  header "E12: commit latency vs participant count"
    "Each participant gets one prepare and one decide carrying its \
     write-through; atomicity costs one prepare round plus the logged \
     decision.";
  let table =
    Stats.table
      ~columns:
        [ "participants";
          "txn commit mean (ms)";
          "txn commit p95 (ms)";
          "sequential writes mean (ms)";
          "atomicity overhead (ms)" ]
  in
  List.iter
    (fun p ->
      let sys = System.create ~nodes_per_cluster:10 ~clusters:1 () in
      let coord = 9 in
      let ccoord = System.client sys coord () in
      let regions =
        List.init p (fun i ->
            let home = 1 + i in
            let c = System.client sys home () in
            let r =
              System.run_fiber sys (fun () ->
                  let attr = Attr.make ~owner:home () in
                  let r = ok (Client.create_region c ~attr 4096) in
                  ok
                    (Client.write_bytes c ~addr:r.Region.base
                       (Bytes.make 8 '0'));
                  r)
            in
            r.Region.base)
      in
      System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
      let payload n = Bytes.of_string (Printf.sprintf "%08d" n) in
      (* Warm the coordinator's region directory so every measured commit
         pays locking and 2PC, not cold lookups. *)
      System.run_fiber sys (fun () ->
          List.iter
            (fun addr -> ignore (ok (Client.read_bytes ccoord ~addr 8)))
            regions);
      let txn_ms = ref [] in
      for n = 1 to txns_per_point do
        let (), ms =
          timed sys (fun () ->
              System.run_fiber sys (fun () ->
                  ok
                    (Client.txn ccoord (fun txn ->
                         List.fold_left
                           (fun acc addr ->
                             match acc with
                             | Error _ as e -> e
                             | Ok () ->
                               Client.txn_write ccoord txn ~addr (payload n))
                           (Ok ()) regions))))
        in
        txn_ms := ms :: !txn_ms
      done;
      let seq_ms = ref [] in
      for n = 1 to txns_per_point do
        let (), ms =
          timed sys (fun () ->
              System.run_fiber sys (fun () ->
                  List.iter
                    (fun addr ->
                      ok (Client.write_bytes ccoord ~addr (payload n)))
                    regions))
        in
        seq_ms := ms :: !seq_ms
      done;
      let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs) in
      let p95 xs =
        let a = Array.of_list xs in
        Array.sort compare a;
        a.(min (Array.length a - 1) (Array.length a * 95 / 100))
      in
      let tm = mean !txn_ms and sm = mean !seq_ms in
      Stats.row table
        [ string_of_int p;
          f2 tm;
          f2 (p95 !txn_ms);
          f2 sm;
          (* Both paths run against a warm cache, so the delta is purely
             the 2PC rounds: prepare fan-out + logged decision. *)
          f2 (tm -. sm) ])
    [ 1; 2; 4; 8 ];
  print_table table
