(* E3c — contended writes under the versioned (MVCC) CM.

   The CREW collapse, quantified in E3's contended column: every write to
   a shared region migrates ownership, so adding writers adds ping-pong
   and aggregate throughput falls. The versioned CM publishes immutable
   page versions at the home instead — no ownership transfer, no
   invalidation — so the same contended workload must not collapse:
   throughput from 2 to 16 writers rises, or at worst stays flat.

   Second claim: sub-page diff propagation. A publish whose changed bytes
   are few ships them as [Page_diff] runs, not the whole page image; the
   applied result is byte-identical to whole-image shipping while the
   bytes on the wire drop by orders of magnitude. *)

open Bench_common

let ops_per_writer = 40

(* One shared 1-page region homed at node 0; every node hammers it with
   whole-op writes (lock + write + unlock via write_bytes). *)
let run_contended ~protocol ~writers =
  let sys = System.create ~nodes_per_cluster:writers ~clusters:1 () in
  let node_ids = List.init writers Fun.id in
  let region =
    System.run_fiber sys (fun () ->
        let c = System.client sys 0 () in
        let attr = Attr.make ~protocol ~owner:0 () in
        let r = ok (Client.create_region c ~attr 4096) in
        ok (Client.write_bytes c ~addr:r.Region.base (Bytes.make 8 'i'));
        r)
  in
  let t0 = System.now sys in
  System.run_fiber sys (fun () ->
      let eng = System.engine sys in
      let fibers =
        List.map
          (fun n ->
            Ksim.Fiber.async eng (fun () ->
                let c = System.client sys n () in
                for i = 1 to ops_per_writer do
                  ok
                    (Client.write_bytes c ~addr:region.Region.base
                       (Bytes.make 8 (Char.chr (65 + ((n + i) mod 26)))))
                done))
          node_ids
      in
      Ksim.Fiber.join_all fibers);
  let elapsed = Ksim.Time.to_sec_f (System.now sys - t0) in
  float_of_int (writers * ops_per_writer) /. elapsed

let contended_table () =
  let table =
    Stats.table
      ~columns:
        [ "writers"; "crew ops/s"; "vs 2w"; "versioned ops/s"; "vs 2w" ]
  in
  let base_c = ref 0.0 and base_v = ref 0.0 in
  List.iter
    (fun writers ->
      let c = run_contended ~protocol:"crew" ~writers in
      let v = run_contended ~protocol:"versioned" ~writers in
      if writers = 2 then begin
        base_c := c;
        base_v := v
      end;
      Stats.row table
        [ string_of_int writers; f1 c; f2 (c /. !base_c); f1 v;
          f2 (v /. !base_v) ])
    [ 2; 4; 8; 16 ];
  print_table table

(* ------------------- Diff vs whole-image publish --------------------- *)

let diff_ops = 20
let dirty_len = 32

(* A remote writer dirties [dirty_len] bytes of a 4 KiB page, [diff_ops]
   times. With diffs on (default density threshold) each publish ships
   runs; with the threshold at 0.0 every publish falls back to the whole
   image. Same workload, same final bytes — only the wire differs. *)
let run_publish_bytes ~whole =
  let config =
    if whole then
      Some { Daemon.default_config with Daemon.diff_density_max = 0.0 }
    else None
  in
  let sys = System.create ?config ~nodes_per_cluster:2 ~clusters:1 () in
  let c0 = System.client sys 0 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~protocol:"versioned" ~owner:0 () in
        let r = ok (Client.create_region c0 ~attr 4096) in
        ok (Client.write_bytes c0 ~addr:r.Region.base (Bytes.make 4096 'i'));
        r)
  in
  (* Warm the writer's replica so the measured window holds only the
     publish traffic (plus the home's fan-out, identical in both arms). *)
  System.run_fiber sys (fun () ->
      ignore (ok (Client.read_bytes c1 ~addr:region.Region.base 8)));
  let (), _envelopes, _atoms, bytes =
    traffic sys (fun () ->
        System.run_fiber sys (fun () ->
            for i = 1 to diff_ops do
              ok
                (Client.write_bytes c1
                   ~addr:(Gaddr.add_int region.Region.base 128)
                   (Bytes.make dirty_len (Char.chr (65 + (i mod 26)))))
            done))
  in
  let image =
    System.run_fiber sys (fun () ->
        ok (Client.read_bytes c0 ~addr:region.Region.base 4096))
  in
  (bytes, image)

let diff_table () =
  Printf.printf
    "\nE3c diff propagation: %d publishes of %d dirty bytes in a 4096-byte \
     page,\nremote writer -> home (fan-out traffic identical in both arms):\n"
    diff_ops dirty_len;
  let whole_bytes, whole_img = run_publish_bytes ~whole:true in
  let diff_bytes, diff_img = run_publish_bytes ~whole:false in
  if not (Bytes.equal whole_img diff_img) then
    failwith "E3c: diff-applied image differs from whole-image publish";
  let table = Stats.table ~columns:[ "publish payload"; "KiB on wire" ] in
  Stats.row table [ "whole image"; f1 (float_of_int whole_bytes /. 1024.) ];
  Stats.row table [ "dirty runs"; f1 (float_of_int diff_bytes /. 1024.) ];
  print_table table;
  Printf.printf
    "final images byte-identical; dirty-run publishing sent %.1fx fewer \
     bytes\n"
    (float_of_int whole_bytes /. float_of_int (max 1 diff_bytes))

let run () =
  header "E3c: contended writes under the versioned CM"
    "CREW collapses as writers are added to one region (ownership \
     ping-pong); the versioned CM's publish path must not — and sub-page \
     diffs keep publish bytes near the dirty footprint, not the page size.";
  contended_table ();
  diff_table ()
