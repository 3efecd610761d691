(* Wall-clock microbenchmarks (Bechamel) of the hot code paths: one
   Test.make per experiment family, so regressions in the substrate show up
   independently of the simulated-time experiment tables. *)

open Bechamel
open Toolkit

let u128_tests =
  let a = Kutil.U128.of_hex "deadbeefcafebabe0123456789abcdef" in
  let b = Kutil.U128.of_hex "0fedcba987654321" in
  [
    Test.make ~name:"u128 add+sub" (Staged.stage (fun () ->
        Kutil.U128.sub (Kutil.U128.add a b) b));
    Test.make ~name:"u128 divmod 4096" (Staged.stage (fun () ->
        Kutil.U128.divmod_int a 4096));
    Test.make ~name:"u128 divmod non-pot" (Staged.stage (fun () ->
        Kutil.U128.divmod_int a 37));
  ]

(* The page arithmetic every lock and read runs: the enclosing page and the
   offset into it of an unaligned address, and a region's range test. *)
let page_tests =
  let addr = Kutil.U128.of_hex "deadbeefcafebabe0123456789abcdef" in
  let region =
    Khazana.Region.make ~base:(Kutil.U128.of_hex "10000000000")
      ~len:(1 lsl 20) ~attr:(Khazana.Attr.make ~owner:0 ()) ~home:0
  in
  let inside = Kutil.Gaddr.add_int region.Khazana.Region.base 8000 in
  [
    Test.make ~name:"gaddr page_floor+offset 4 KiB" (Staged.stage (fun () ->
        ignore (Kutil.Gaddr.page_floor addr ~page_size:4096);
        Kutil.Gaddr.page_offset addr ~page_size:4096));
    Test.make ~name:"region contains_range" (Staged.stage (fun () ->
        Khazana.Region.contains_range region inside ~len:4096));
  ]

(* The lookup every page and region table does: one of 1,024 page keys
   at [Layout.data_base], a different key each call. *)
let table_tests =
  let keys =
    Array.init 1024 (fun i ->
        Kutil.Gaddr.add_int Khazana.Layout.data_base (i * 4096))
  in
  let table = Kutil.Gaddr.Table.create 1024 in
  Array.iter (fun k -> Kutil.Gaddr.Table.replace table k ()) keys;
  let next = ref 0 in
  [
    Test.make ~name:"Gaddr.Table.find_opt, 1,024 page keys"
      (Staged.stage (fun () ->
           next := (!next + 1) land 1023;
           Kutil.Gaddr.Table.find_opt table keys.(!next)));
  ]

let container_tests =
  [
    Test.make ~name:"heap push+pop x100" (Staged.stage (fun () ->
        let h = Kutil.Heap.create ~cmp:compare in
        for i = 0 to 99 do
          Kutil.Heap.push h ((i * 37) mod 100)
        done;
        while Kutil.Heap.pop h <> None do () done));
  ]

let engine_tests =
  [
    Test.make ~name:"engine schedule+run x100" (Staged.stage (fun () ->
        let eng = Ksim.Engine.create () in
        for i = 1 to 100 do
          ignore (Ksim.Engine.schedule eng ~after:i ignore)
        done;
        Ksim.Engine.run eng));
    Test.make ~name:"fiber spawn+sleep x10" (Staged.stage (fun () ->
        let eng = Ksim.Engine.create () in
        for _ = 1 to 10 do
          Ksim.Fiber.spawn eng (fun () -> Ksim.Fiber.sleep 100)
        done;
        Ksim.Engine.run eng));
    (* One child fiber awaited by its parent; the parent's own spawn is
       part of the row. *)
    Test.make ~name:"fiber async+await"
      (let eng = Ksim.Engine.create () in
       Staged.stage (fun () ->
           Ksim.Fiber.spawn eng (fun () ->
               ignore (Ksim.Fiber.await (Ksim.Fiber.async eng (fun () -> 1))));
           Ksim.Engine.run eng));
  ]

let crew_tests =
  [
    Test.make ~name:"crew local acquire/release" (Staged.stage (fun () ->
        let cfg = Kconsistency.Types.default_config ~self:0 ~home:0 in
        let m = Kconsistency.Crew.create cfg (Kconsistency.Types.Start_owner (Bytes.create 64)) in
        for i = 0 to 9 do
          ignore (Kconsistency.Crew.handle m
                    (Kconsistency.Types.Acquire { req = i; mode = Kconsistency.Types.Write }));
          ignore (Kconsistency.Crew.handle m
                    (Kconsistency.Types.Release
                       { mode = Kconsistency.Types.Write; data = Some (Bytes.create 64) }))
        done));
  ]

(* The one byte compare of page images and its inverse: a 4 KiB page with
   one 32-byte run changed, and a write-shared home's write release of such
   a page, which compares the written image once against its copy. *)
let diff_tests =
  let module Ct = Kconsistency.Types in
  let old = Bytes.make 4096 'a' in
  let run = Bytes.make 32 'b' in
  let changed = Ct.apply_runs old [ (1024, run) ] in
  [
    Test.make ~name:"Types.diff 4 KiB, 32 changed bytes"
      (Staged.stage (fun () -> Ct.diff ~old ~new_:changed));
    Test.make ~name:"Types.apply_runs one 32-byte run"
      (Staged.stage (fun () -> Ct.apply_runs old [ (1024, run) ]));
    Test.make ~name:"write-shared release 4 KiB, 32 changed bytes"
      (let m =
         Kconsistency.Write_shared.create
           (Ct.default_config ~self:0 ~home:0)
           (Ct.Start_owner old)
       in
       let next = ref changed in
       Staged.stage (fun () ->
           ignore
             (Kconsistency.Write_shared.handle m
                (Ct.Acquire { req = 0; mode = Ct.Write }));
           ignore
             (Kconsistency.Write_shared.handle m
                (Ct.Release { mode = Ct.Write; data = Some !next }));
           next := if !next == changed then old else changed));
  ]

let storage_tests =
  [
    Test.make ~name:"page_store write+read immediate"
      (let eng = Ksim.Engine.create () in
       let store = Kstorage.Page_store.create eng (Kstorage.Page_store.config ()) in
       let data = Bytes.create 4096 in
       let counter = ref 0 in
       Staged.stage (fun () ->
           incr counter;
           let addr = Kutil.Gaddr.of_int ((!counter mod 128) * 4096) in
           Kstorage.Page_store.write_immediate store addr data ~dirty:false;
           ignore (Kstorage.Page_store.read_immediate store addr)));
  ]

(* The durable-page write path: one intent-log append of a page record, one
   sub-page patch of a resident page (one page copy: the patched image is a
   fresh one), the home's install of a whole image and its write-through to
   the disk tier (no copy: the store keeps the buffer, and both tiers share
   it), and the checksum the disk tier takes of every image. *)
let durable_write_tests =
  let page = Kutil.Gaddr.of_int (7 * 4096) in
  let image = Bytes.make 4096 'w' in
  let fresh_log () =
    let log = Kstorage.Wal.create ~rng:(Kutil.Rng.create ~seed:7) () in
    (log, Kstorage.Wal.begin_tx log)
  in
  let store_patch name patch =
    let eng = Ksim.Engine.create () in
    let store = Kstorage.Page_store.create eng (Kstorage.Page_store.config ()) in
    Kstorage.Page_store.write_immediate store page image ~dirty:false;
    let src = Bytes.make 512 'p' in
    Test.make ~name
      (Staged.stage (fun () ->
           Ksim.Fiber.spawn eng (fun () -> patch store src);
           Ksim.Engine.run eng))
  in
  [
    (* A fresh log every 512 appends bounds memory without timing the
       checkpoint scan; the fresh log's cost is amortised over the 512. *)
    Test.make ~name:"wal log_page 4 KiB record"
      (let cur = ref (fresh_log ()) and appended = ref 0 in
       Staged.stage (fun () ->
           let log, tx = !cur in
           Kstorage.Wal.log_page log tx page image;
           incr appended;
           if !appended = 512 then begin
             appended := 0;
             cur := fresh_log ()
           end));
    store_patch "page_store write_from 512 B (cached page)" (fun store src ->
        ignore
          (Kstorage.Page_store.write_from store page ~off:1024 src ~src_off:0
             ~len:512));
    Test.make ~name:"page_store write_immediate+flush_immediate 4 KiB"
      (let eng = Ksim.Engine.create () in
       let store =
         Kstorage.Page_store.create eng (Kstorage.Page_store.config ())
       in
       Staged.stage (fun () ->
           Kstorage.Page_store.write_immediate store page image ~dirty:false;
           Kstorage.Page_store.flush_immediate store page));
    Test.make ~name:"disk_fault checksum 4 KiB"
      (Staged.stage (fun () -> Kstorage.Disk_fault.checksum image));
  ]

let codec_tests =
  let node =
    {
      Khazana.Address_map.Node.base = Kutil.U128.zero;
      span_log2 = 64;
      next_free = 5;
      entries =
        List.init 20 (fun i ->
            Khazana.Address_map.Reserved
              {
                Khazana.Address_map.base = Kutil.Gaddr.of_int (i * 65536);
                len = 4096;
                page_size = 4096;
                homes = [ i mod 4 ];
              });
    }
  in
  [
    Test.make ~name:"address-map node encode+decode" (Staged.stage (fun () ->
        Khazana.Address_map.Node.decode (Khazana.Address_map.Node.encode node)));
  ]

(* One envelope's frame, encoded into a reused encoder: what the socket
   link writes and what the simulated link encodes to size every
   envelope it carries. *)
let frame_tests =
  let module Msg = Khazana.Wire.Transport.Msg in
  let enc = Kutil.Codec.encoder () in
  let page = Kutil.Gaddr.of_int (3 * 4096) and base = Kutil.Gaddr.of_int 0 in
  let cm body =
    Msg.Oneway { span = 0; body = Khazana.Wire.Cm_msg { page; region_base = base; body } }
  in
  let frame name msg =
    Test.make ~name:("frame encode " ^ name)
      (Staged.stage (fun () -> Msg.encode_frame enc ~src:1 msg))
  in
  [
    frame "cm read_grant 4 KiB"
      (cm
         (Kconsistency.Types.Read_grant
            { data = Bytes.make 4096 'g'; version = 3; fence = 1 }));
    frame "cm invalidate" (cm (Kconsistency.Types.Invalidate { fence = 1 }));
    frame "tx_prepare 2 pages"
      (Msg.Request
         {
           id = 17;
           span = 0;
           body =
             Khazana.Wire.Tx_prepare
               {
                 gtx = Kutil.Txid.make ~coord:0 ~epoch:1 ~seq:9;
                 pages =
                   [ (page, Bytes.make 4096 'p');
                     (Kutil.Gaddr.add_int page 4096, Bytes.make 4096 'q') ];
               };
         });
  ]

let end_to_end_tests =
  (* A full simulated lock/write/unlock against a pre-built 6-node system:
     measures the whole daemon/CM/engine stack per operation. *)
  let sys = Khazana.System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c = Khazana.System.client sys 1 () in
  let region =
    Khazana.System.run_fiber sys (fun () ->
        match Khazana.Client.create_region c 4096 with
        | Ok r -> r
        | Error _ -> assert false)
  in
  let payload = Bytes.make 64 'b' in
  (* Node 2 shares node 1's cluster; its first read caches the page. *)
  let reader = Khazana.System.client sys 2 () in
  let read () =
    match
      Khazana.Client.read_bytes reader ~addr:region.Khazana.Region.base 4096
    with
    | Ok b -> b
    | Error _ -> assert false
  in
  ignore (Khazana.System.run_fiber sys read);
  [
    Test.make ~name:"simulated local write op (full stack)"
      (Staged.stage (fun () ->
           Khazana.System.run_fiber sys (fun () ->
               match Khazana.Client.write_bytes c ~addr:region.Khazana.Region.base payload with
               | Ok () -> ()
               | Error _ -> assert false)));
    Test.make ~name:"simulated cached read_bytes (full stack)"
      (Staged.stage (fun () -> Khazana.System.run_fiber sys read));
  ]

(* One two-participant transaction per call, as kbench's txn-2pc runs it:
   the coordinator writes a page it homes (its local prepare leg) and a
   page homed on a node of the same cluster (a remote prepare and decide),
   both through its intent log. Its own system, so the rows above keep
   theirs; built only when the rows run. *)
let txn_tests () =
  let sys = Khazana.System.create ~nodes_per_cluster:3 ~clusters:1 () in
  let coord = Khazana.System.client sys 1 () in
  let region client =
    Khazana.System.run_fiber sys (fun () ->
        match Khazana.Client.create_region client 4096 with
        | Ok r -> r.Khazana.Region.base
        | Error _ -> assert false)
  in
  let local = region coord and remote = region (Khazana.System.client sys 2 ()) in
  let payload = Bytes.make 64 't' in
  let commit () =
    match
      Khazana.Client.txn coord (fun txn ->
          match Khazana.Client.txn_write coord txn ~addr:local payload with
          | Ok () -> Khazana.Client.txn_write coord txn ~addr:remote payload
          | Error _ as e -> e)
    with
    | Ok () -> ()
    | Error _ -> assert false
  in
  Khazana.System.run_fiber sys commit;
  [
    Test.make ~name:"simulated 2PC commit (full stack)"
      (Staged.stage (fun () -> Khazana.System.run_fiber sys commit));
  ]

let all_tests () =
  Test.make_grouped ~name:"khazana" ~fmt:"%s %s"
    (u128_tests @ page_tests @ table_tests @ container_tests @ engine_tests @ crew_tests
    @ diff_tests @ storage_tests @ durable_write_tests @ codec_tests @ frame_tests
    @ end_to_end_tests @ txn_tests ())

(* Time per call, and heap words allocated per call on the minor and major
   heaps (a page-sized buffer is allocated straight into the major heap). *)
let run () =
  Printf.printf "\n=== Microbenchmarks (wall clock, allocation) ===\n\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (all_tests ()) in
  let analyze instance = Analyze.all ols instance raw in
  let time = analyze Instance.monotonic_clock
  and minor = analyze Instance.minor_allocated
  and major = analyze Instance.major_allocated in
  let estimate results name =
    match Option.map Analyze.OLS.estimates (Hashtbl.find_opt results name) with
    | Some (Some (n :: _)) -> Printf.sprintf "%.1f" n
    | Some (Some []) | Some None | None -> "n/a"
  in
  let table =
    Kutil.Stats.table
      ~columns:[ "benchmark"; "ns/op"; "minor words/op"; "major words/op" ]
  in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) time [] in
  List.iter
    (fun name ->
      Kutil.Stats.row table
        [ name; estimate time name; estimate minor name; estimate major name ])
    (List.sort compare names);
  print_endline (Kutil.Stats.render table)
