(* Unit tests for the core building blocks: attributes, region descriptors,
   region directory, page directory, cluster-manager state, layout. *)

module Attr = Khazana.Attr
module Region = Khazana.Region
module Gaddr = Kutil.Gaddr
module Ctypes = Kconsistency.Types

let u128 = Alcotest.testable Kutil.U128.pp Kutil.U128.equal
let addr n = Gaddr.of_int n

let mk_attr ?world ?min_replicas ?page_size ?level ?protocol () =
  Attr.make ?world ?min_replicas ?page_size ?level ?protocol ~owner:1 ()

let mk_region ?(base = 0x10000) ?(len = 8192) ?attr () =
  let attr = match attr with Some a -> a | None -> mk_attr () in
  Region.make ~base:(addr base) ~len ~attr ~home:2

(* ------------------------------- Attr ------------------------------ *)

let test_attr_defaults () =
  let a = mk_attr () in
  Alcotest.(check string) "protocol" "crew" a.Attr.protocol;
  Alcotest.(check int) "page" 4096 a.Attr.page_size;
  Alcotest.(check int) "replicas" 1 a.Attr.min_replicas

let test_attr_level_protocol_defaults () =
  Alcotest.(check string) "release" "release"
    (mk_attr ~level:Attr.Release ()).Attr.protocol;
  Alcotest.(check string) "eventual" "eventual"
    (mk_attr ~level:Attr.Eventual ()).Attr.protocol

let test_attr_validation () =
  Alcotest.(check bool) "bad page size" true
    (try ignore (mk_attr ~page_size:1000 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad replicas" true
    (try ignore (mk_attr ~min_replicas:0 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown protocol" true
    (try ignore (mk_attr ~protocol:"paxos" ()); false
     with Invalid_argument _ -> true);
  (* The paper allows larger power-of-two pages. *)
  Alcotest.(check int) "16k ok" 16384 (mk_attr ~page_size:16384 ()).Attr.page_size

let test_attr_acl () =
  let a = mk_attr ~world:Attr.Read_only () in
  Alcotest.(check bool) "owner writes" true (Attr.allows a ~principal:1 Ctypes.Write);
  Alcotest.(check bool) "world reads" true (Attr.allows a ~principal:9 Ctypes.Read);
  Alcotest.(check bool) "world no write" false (Attr.allows a ~principal:9 Ctypes.Write);
  let b = mk_attr ~world:Attr.No_access () in
  Alcotest.(check bool) "no access" false (Attr.allows b ~principal:9 Ctypes.Read);
  Alcotest.(check bool) "owner still ok" true (Attr.allows b ~principal:1 Ctypes.Write)

let test_attr_codec () =
  let a = mk_attr ~world:Attr.Read_only ~min_replicas:3 ~level:Attr.Eventual () in
  let e = Kutil.Codec.encoder () in
  Attr.encode e a;
  let a' = Attr.decode (Kutil.Codec.decoder (Kutil.Codec.to_bytes e)) in
  Alcotest.(check string) "protocol" a.Attr.protocol a'.Attr.protocol;
  Alcotest.(check int) "replicas" 3 a'.Attr.min_replicas;
  Alcotest.(check bool) "world" true (a'.Attr.world = Attr.Read_only)

(* ------------------------------ Region ----------------------------- *)

let test_region_validation () =
  Alcotest.(check bool) "misaligned base" true
    (try ignore (Region.make ~base:(addr 100) ~len:4096 ~attr:(mk_attr ()) ~home:0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unrounded length" true
    (try ignore (Region.make ~base:(addr 4096) ~len:1000 ~attr:(mk_attr ()) ~home:0); false
     with Invalid_argument _ -> true)

let test_region_geometry () =
  let r = mk_region ~base:8192 ~len:12288 () in
  Alcotest.(check int) "pages" 3 (Region.page_count r);
  Alcotest.(check (list bool)) "page list aligned" [ true; true; true ]
    (List.map (fun p -> Gaddr.is_page_aligned p ~page_size:4096) (Region.pages r));
  Alcotest.(check bool) "contains start" true (Region.contains r (addr 8192));
  Alcotest.(check bool) "contains last" true (Region.contains r (addr 20479));
  Alcotest.(check bool) "excludes end" false (Region.contains r (addr 20480));
  Alcotest.(check bool) "range in" true (Region.contains_range r (addr 9000) ~len:100);
  Alcotest.(check bool) "range out" false
    (Region.contains_range r (addr 20000) ~len:1000);
  Alcotest.check u128 "page_of" (addr 12288) (Region.page_of r (addr 13000))

let test_region_codec () =
  let r = mk_region () in
  let e = Kutil.Codec.encoder () in
  Region.encode e r;
  let r' = Region.decode (Kutil.Codec.decoder (Kutil.Codec.to_bytes e)) in
  Alcotest.check u128 "base" r.Region.base r'.Region.base;
  Alcotest.(check int) "len" r.Region.len r'.Region.len;
  Alcotest.(check int) "home" r.Region.home r'.Region.home;
  Alcotest.(check bool) "state" true (r'.Region.state = Region.Reserved);
  let r'' = Region.allocated r in
  Alcotest.(check bool) "allocated" true (r''.Region.state = Region.Allocated)

(* -------------------------- Region directory ----------------------- *)

let test_rdir_containing_lookup () =
  let rd = Khazana.Region_directory.create ~capacity:4 in
  Khazana.Region_directory.put rd (mk_region ~base:0x10000 ~len:8192 ());
  Khazana.Region_directory.put rd (mk_region ~base:0x20000 ~len:4096 ());
  (match Khazana.Region_directory.find rd (addr 0x11000) with
   | Some r -> Alcotest.check u128 "right region" (addr 0x10000) r.Region.base
   | None -> Alcotest.fail "miss");
  Alcotest.(check bool) "gap misses" true
    (Khazana.Region_directory.find rd (addr 0x18000) = None);
  Alcotest.(check int) "hit count" 1 (Khazana.Region_directory.hits rd);
  Alcotest.(check int) "miss count" 1 (Khazana.Region_directory.misses rd)

let test_rdir_lru_eviction () =
  let rd = Khazana.Region_directory.create ~capacity:2 in
  Khazana.Region_directory.put rd (mk_region ~base:0x10000 ());
  Khazana.Region_directory.put rd (mk_region ~base:0x20000 ());
  ignore (Khazana.Region_directory.find rd (addr 0x10000));
  Khazana.Region_directory.put rd (mk_region ~base:0x30000 ());
  Alcotest.(check int) "capped" 2 (Khazana.Region_directory.length rd);
  Alcotest.(check bool) "lru evicted" true
    (Khazana.Region_directory.find rd (addr 0x20000) = None);
  Alcotest.(check bool) "recent kept" true
    (Khazana.Region_directory.find rd (addr 0x10000) <> None)

let test_rdir_invalidate () =
  let rd = Khazana.Region_directory.create ~capacity:4 in
  Khazana.Region_directory.put rd (mk_region ~base:0x10000 ~len:8192 ());
  Khazana.Region_directory.invalidate_containing rd (addr 0x11500);
  Alcotest.(check int) "gone" 0 (Khazana.Region_directory.length rd)

let test_rdir_replace_updates () =
  let rd = Khazana.Region_directory.create ~capacity:4 in
  Khazana.Region_directory.put rd (mk_region ~base:0x10000 ());
  let updated = Region.allocated (mk_region ~base:0x10000 ()) in
  Khazana.Region_directory.put rd updated;
  Alcotest.(check int) "no duplicate" 1 (Khazana.Region_directory.length rd);
  match Khazana.Region_directory.find rd (addr 0x10000) with
  | Some r -> Alcotest.(check bool) "newest wins" true (r.Region.state = Region.Allocated)
  | None -> Alcotest.fail "miss"

(* --------------------------- Page directory ------------------------ *)

let test_pdir_basic () =
  let pd = Khazana.Page_directory.create () in
  let e =
    Khazana.Page_directory.ensure pd ~page:(addr 4096) ~region_base:(addr 4096)
      ~homed_here:true
  in
  Alcotest.(check (list int)) "starts empty" [] e.Khazana.Page_directory.sharers;
  Khazana.Page_directory.set_sharers pd (addr 4096) [ 1; 2 ];
  (match Khazana.Page_directory.find pd (addr 4096) with
   | Some e -> Alcotest.(check (list int)) "sharers" [ 1; 2 ] e.Khazana.Page_directory.sharers
   | None -> Alcotest.fail "miss");
  (* ensure is idempotent *)
  let e2 =
    Khazana.Page_directory.ensure pd ~page:(addr 4096) ~region_base:(addr 4096)
      ~homed_here:true
  in
  Alcotest.(check (list int)) "kept" [ 1; 2 ] e2.Khazana.Page_directory.sharers

(* A crash wipes the whole directory (it lives in memory); the homed
   entries come back through the persistent-snapshot codec that WAL
   checkpoints embed, hints do not. *)
let test_pdir_crash_wipes_and_snapshot_restores () =
  let pd = Khazana.Page_directory.create () in
  ignore (Khazana.Page_directory.ensure pd ~page:(addr 0) ~region_base:(addr 0) ~homed_here:true);
  Khazana.Page_directory.set_sharers pd (addr 0) [ 2; 5 ];
  ignore (Khazana.Page_directory.ensure pd ~page:(addr 4096) ~region_base:(addr 4096) ~homed_here:false);
  let enc = Kutil.Codec.encoder () in
  Khazana.Page_directory.encode_persistent pd enc;
  let snap = Kutil.Codec.to_bytes enc in
  Khazana.Page_directory.crash pd;
  Alcotest.(check int) "crash wipes everything" 0 (Khazana.Page_directory.length pd);
  Khazana.Page_directory.decode_persistent pd (Kutil.Codec.decoder snap);
  (match Khazana.Page_directory.find pd (addr 0) with
   | Some e ->
     Alcotest.(check bool) "homed flag" true e.Khazana.Page_directory.homed_here;
     Alcotest.(check (list int)) "sharers restored" [ 2; 5 ]
       e.Khazana.Page_directory.sharers
   | None -> Alcotest.fail "homed entry not restored");
  Alcotest.(check bool) "hints not in snapshot" true
    (Khazana.Page_directory.find pd (addr 4096) = None)

(* ------------------------------ Cluster ---------------------------- *)

let test_cluster_chunks_disjoint () =
  let cm = Khazana.Cluster.create ~cluster_id:0 in
  let b1, l1 = Khazana.Cluster.next_chunk cm in
  let b2, _ = Khazana.Cluster.next_chunk cm in
  Alcotest.check u128 "sequential" (Gaddr.add_int b1 l1) b2;
  Alcotest.(check int) "granted" 2 (Khazana.Cluster.chunks_granted cm);
  (* Different clusters never overlap. *)
  let cm2 = Khazana.Cluster.create ~cluster_id:1 in
  let b3, _ = Khazana.Cluster.next_chunk cm2 in
  Alcotest.(check bool) "cluster slices apart" true
    (Kutil.U128.compare b3 (Gaddr.add_int b2 Khazana.Layout.chunk_size) > 0)

let test_cluster_hints () =
  let cm = Khazana.Cluster.create ~cluster_id:0 in
  let r = mk_region ~base:0x50000 ~len:8192 () in
  Khazana.Cluster.record_report cm ~node:3 ~regions:[ (r.Region.base, r) ]
    ~free_bytes:1000;
  (match Khazana.Cluster.lookup cm (addr 0x51000) with
   | Some _, holders -> Alcotest.(check (list int)) "holder" [ 3 ] holders
   | None, _ -> Alcotest.fail "hint missing");
  Alcotest.(check (list (pair int int))) "free pool" [ (3, 1000) ]
    (Khazana.Cluster.free_bytes_hint cm);
  (* A refreshed report replaces the old claims. *)
  Khazana.Cluster.record_report cm ~node:3 ~regions:[] ~free_bytes:500;
  Alcotest.(check bool) "claims dropped" true
    (fst (Khazana.Cluster.lookup cm (addr 0x51000)) = None)

let test_cluster_forget_node () =
  let cm = Khazana.Cluster.create ~cluster_id:0 in
  let r = mk_region ~base:0x50000 () in
  Khazana.Cluster.record_report cm ~node:3 ~regions:[ (r.Region.base, r) ] ~free_bytes:0;
  Khazana.Cluster.record_report cm ~node:4 ~regions:[ (r.Region.base, r) ] ~free_bytes:0;
  Khazana.Cluster.forget_node cm 3;
  (match Khazana.Cluster.lookup cm (addr 0x50000) with
   | Some _, holders -> Alcotest.(check (list int)) "only n4" [ 4 ] holders
   | None, _ -> Alcotest.fail "hint lost entirely");
  Khazana.Cluster.forget_node cm 4;
  Alcotest.(check bool) "now empty" true
    (fst (Khazana.Cluster.lookup cm (addr 0x50000)) = None)

(* ------------------------------ Layout ----------------------------- *)

let test_layout_constants () =
  Alcotest.check u128 "map at zero" Gaddr.zero Khazana.Layout.map_base;
  Alcotest.check u128 "page addr" (addr 8192) (Khazana.Layout.map_page_addr 2);
  Alcotest.(check bool) "data above map" true
    (Kutil.U128.compare Khazana.Layout.data_base
       (addr Khazana.Layout.map_len) > 0);
  let r = Khazana.Layout.map_region ~bootstrap_node:0 in
  Alcotest.(check bool) "map allocated" true (r.Region.state = Region.Allocated);
  Alcotest.(check string) "map protocol" "release" r.Region.attr.Attr.protocol

let test_wire_sizes_positive () =
  let reqs =
    [
      Khazana.Wire.Get_descriptor { addr = addr 0 };
      Khazana.Wire.Chunk_request;
      Khazana.Wire.Ping;
      Khazana.Wire.Cm_msg
        { page = addr 0; region_base = addr 0;
          body = Ctypes.Read_grant { data = Bytes.create 4096; version = 1; fence = 0 } };
    ]
  in
  (* Sizes are encoded lengths: the bytes the request puts on the wire. *)
  let encoded_size r =
    let enc = Kutil.Codec.encoder () in
    Khazana.Wire.encode_request enc r;
    Kutil.Codec.length enc
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Khazana.Wire.request_kind r ^ " has positive size")
        true
        (encoded_size r > 0))
    reqs;
  (* Data-bearing messages dominate. *)
  Alcotest.(check bool) "grant carries page" true
    (encoded_size (List.nth reqs 3) > 4096)

let () =
  Alcotest.run "core-units"
    [
      ( "attr",
        [
          Alcotest.test_case "defaults" `Quick test_attr_defaults;
          Alcotest.test_case "level->protocol" `Quick test_attr_level_protocol_defaults;
          Alcotest.test_case "validation" `Quick test_attr_validation;
          Alcotest.test_case "acl" `Quick test_attr_acl;
          Alcotest.test_case "codec" `Quick test_attr_codec;
        ] );
      ( "region",
        [
          Alcotest.test_case "validation" `Quick test_region_validation;
          Alcotest.test_case "geometry" `Quick test_region_geometry;
          Alcotest.test_case "codec" `Quick test_region_codec;
        ] );
      ( "region_directory",
        [
          Alcotest.test_case "containing lookup" `Quick test_rdir_containing_lookup;
          Alcotest.test_case "lru eviction" `Quick test_rdir_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_rdir_invalidate;
          Alcotest.test_case "replace" `Quick test_rdir_replace_updates;
        ] );
      ( "page_directory",
        [
          Alcotest.test_case "basic" `Quick test_pdir_basic;
          Alcotest.test_case "crash" `Quick test_pdir_crash_wipes_and_snapshot_restores;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "chunks" `Quick test_cluster_chunks_disjoint;
          Alcotest.test_case "hints" `Quick test_cluster_hints;
          Alcotest.test_case "forget node" `Quick test_cluster_forget_node;
        ] );
      ( "layout+wire",
        [
          Alcotest.test_case "layout" `Quick test_layout_constants;
          Alcotest.test_case "wire sizes" `Quick test_wire_sizes_positive;
        ] );
    ]
