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
  Alcotest.(check int) "gone" 0 (Khazana.Region_directory.length rd);
  Khazana.Region_directory.invalidate_containing rd (addr 0x11500);
  Khazana.Region_directory.remove rd (addr 0x10000);
  Alcotest.(check int) "absent entries leave the count" 0
    (Khazana.Region_directory.length rd)

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
  ignore (Khazana.Cluster.record_report cm ~node:3 ~regions:[ r ] ~free_bytes:1000);
  (match Khazana.Cluster.lookup cm (addr 0x51000) with
   | Some _, holders -> Alcotest.(check (list int)) "holder" [ 3 ] holders
   | None, _ -> Alcotest.fail "hint missing");
  Alcotest.(check (list (pair int int))) "free pool" [ (3, 1000) ]
    (Khazana.Cluster.free_bytes_hint cm);
  (* A refreshed report replaces the old claims. *)
  ignore (Khazana.Cluster.record_report cm ~node:3 ~regions:[] ~free_bytes:500);
  Alcotest.(check bool) "claims dropped" true
    (fst (Khazana.Cluster.lookup cm (addr 0x51000)) = None)

let report cm node regions =
  Khazana.Cluster.record_report cm ~node ~regions ~free_bytes:0

let holders_at cm a = snd (Khazana.Cluster.lookup cm (addr a))

let test_cluster_holders_order () =
  let cm = Khazana.Cluster.create ~cluster_id:0 in
  let r = mk_region ~base:0x50000 () and other = mk_region ~base:0x60000 () in
  ignore (report cm 3 [ r ]);
  ignore (report cm 4 [ r ]);
  ignore (report cm 5 [ other ]);
  Alcotest.(check (list int)) "latest first" [ 4; 3 ] (holders_at cm 0x50000);
  ignore (report cm 3 [ r ]);
  Alcotest.(check (list int)) "a repeat moves up" [ 3; 4 ] (holders_at cm 0x50000);
  ignore (report cm 4 []);
  Alcotest.(check (list int)) "a dropped claim leaves" [ 3 ] (holders_at cm 0x50000);
  Alcotest.(check (list int)) "other region" [ 5 ] (holders_at cm 0x60000)

let test_cluster_first_descriptor () =
  let cm = Khazana.Cluster.create ~cluster_id:0 in
  let first = mk_region ~base:0x50000 ~len:8192 ()
  and later = mk_region ~base:0x50000 ~len:4096 () in
  let desc_len a =
    Option.map (fun d -> d.Region.len) (fst (Khazana.Cluster.lookup cm (addr a)))
  in
  ignore (report cm 3 [ first ]);
  ignore (report cm 4 [ later ]);
  Alcotest.(check (option int)) "first claimant's" (Some 8192) (desc_len 0x50000);
  ignore (report cm 3 []);
  ignore (report cm 4 [ later ]);
  Alcotest.(check (option int)) "kept while anyone claims it" (Some 8192)
    (desc_len 0x51000);
  ignore (report cm 4 []);
  Alcotest.(check (option int)) "gone with the last claim" None (desc_len 0x50000);
  ignore (report cm 4 [ later ]);
  Alcotest.(check (option int)) "a fresh hint takes the new one" (Some 4096)
    (desc_len 0x50000);
  Alcotest.(check (option int)) "past its end" None (desc_len 0x51000)

let test_cluster_claim_changes () =
  let cm = Khazana.Cluster.create ~cluster_id:0 in
  let a = mk_region ~base:0x50000 () and b = mk_region ~base:0x60000 ()
  and c = mk_region ~base:0x70000 () in
  Alcotest.(check int) "two added" 2 (report cm 3 [ a; b ]);
  Alcotest.(check int) "unchanged repeat" 0 (report cm 3 [ a; b ]);
  Alcotest.(check int) "reordered, listed twice" 0 (report cm 3 [ b; a; b ]);
  Alcotest.(check int) "another member's claim" 1 (report cm 4 [ a ]);
  Alcotest.(check int) "one added, one dropped" 2 (report cm 3 [ a; c ]);
  Alcotest.(check int) "all dropped" 2 (report cm 3 [])

(* The manager as it was before claims were indexed per member: one table
   of hints whose holder lists every report rescans. It is the reference
   the indexed manager must agree with. *)
module List_model = struct
  type hint = { desc : Region.t; mutable holders : int list }

  let create () : hint Gaddr.Table.t = Gaddr.Table.create 64

  let record_report hints ~node ~regions =
    Gaddr.Table.iter
      (fun _ hint -> hint.holders <- List.filter (fun n -> n <> node) hint.holders)
      hints;
    List.iter
      (fun (base, desc) ->
        match Gaddr.Table.find_opt hints base with
        | Some hint ->
          if not (List.mem node hint.holders) then
            hint.holders <- node :: hint.holders
        | None -> Gaddr.Table.replace hints base { desc; holders = [ node ] })
      regions;
    let empty =
      Gaddr.Table.fold
        (fun base hint acc -> if hint.holders = [] then base :: acc else acc)
        hints []
    in
    List.iter (Gaddr.Table.remove hints) empty

  let lookup hints addr =
    let found =
      Gaddr.Table.fold
        (fun _ hint best ->
          match best with
          | Some _ -> best
          | None -> if Region.contains hint.desc addr then Some hint else None)
        hints None
    in
    match found with
    | Some hint -> (Some hint.desc, hint.holders)
    | None -> (None, [])
end

(* 40 disjoint regions 64 KiB apart; each base has two descriptors of
   different lengths, so whose descriptor a hint kept shows at its last
   byte. *)
let model_regions = 40
let model_stride = 0x10000
let model_base i = 0x100000 + (i * model_stride)

let model_desc (i, long) =
  mk_region ~base:(model_base i) ~len:(if long then 0x8000 else 0x6000) ()

type model_report = Fresh of (int * bool) list | Repeat | Empty

type model_step = { node : int; report : model_report }

let pp_model_step { node; report } =
  let body =
    match report with
    | Fresh entries ->
      String.concat " "
        (List.map (fun (i, long) -> Printf.sprintf "%d%s" i (if long then "L" else "s")) entries)
    | Repeat -> "repeat"
    | Empty -> "empty"
  in
  Printf.sprintf "n%d:[%s]" node body

let gen_model_step =
  let open QCheck.Gen in
  let entry = pair (int_bound (model_regions - 1)) bool in
  let fresh =
    map
      (fun (entries, twice) ->
        match entries with
        | e :: _ when twice -> Fresh (entries @ [ e ])
        | _ -> Fresh entries)
      (pair (list_size (int_bound 16) entry) bool)
  in
  map2
    (fun node report -> { node; report })
    (int_range 1 4)
    (frequency [ (6, fresh); (2, return Repeat); (1, return Empty) ])

let arb_model_steps =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun steps -> String.concat "; " (List.map pp_model_step steps))
    QCheck.Gen.(list_size (int_range 1 30) gen_model_step)

(* Each region's first byte, the last byte of either descriptor, one byte
   past the longer one's end, and an address in the gap after it. *)
let model_probes =
  List.concat_map
    (fun i ->
      let b = model_base i in
      List.map addr [ b; b + 0x6000 - 1; b + 0x8000 - 1; b + 0x8000; b + 0xc000 ])
    (List.init model_regions Fun.id)

let prop_cluster_matches_list_model =
  QCheck.Test.make ~name:"matches the list model" ~count:500 arb_model_steps
    (fun steps ->
      let cm = Khazana.Cluster.create ~cluster_id:0 in
      let model = List_model.create () in
      let last = Hashtbl.create 4 in
      let claimed node =
        Option.value (Hashtbl.find_opt last node) ~default:[]
        |> List.map fst |> List.sort_uniq compare
      in
      List.for_all
        (fun { node; report } ->
          let entries =
            match report with
            | Fresh entries -> entries
            | Repeat -> Option.value (Hashtbl.find_opt last node) ~default:[]
            | Empty -> []
          in
          let before = claimed node in
          Hashtbl.replace last node entries;
          let after = claimed node in
          let regions = List.map model_desc entries in
          let changed = Khazana.Cluster.record_report cm ~node ~regions ~free_bytes:0 in
          List_model.record_report model ~node
            ~regions:(List.map (fun d -> (d.Region.base, d)) regions);
          let only xs ys = List.filter (fun x -> not (List.mem x ys)) xs in
          changed = List.length (only after before) + List.length (only before after)
          && List.for_all
               (fun a -> Khazana.Cluster.lookup cm a = List_model.lookup model a)
               model_probes)
        steps)

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
          Alcotest.test_case "holders order" `Quick test_cluster_holders_order;
          Alcotest.test_case "first claimant's descriptor" `Quick
            test_cluster_first_descriptor;
          Alcotest.test_case "claim changes" `Quick test_cluster_claim_changes;
          QCheck_alcotest.to_alcotest prop_cluster_matches_list_model;
        ] );
      ( "layout+wire",
        [
          Alcotest.test_case "layout" `Quick test_layout_constants;
          Alcotest.test_case "wire sizes" `Quick test_wire_sizes_positive;
        ] );
    ]
