(* Region location (§3.2): the homed table, the region directory, the
   cluster manager's hints, the address-map tree walk and, when the tree
   fails us, the cluster walk. Owns the region directory, the location
   counters and the address-map IO over the core's page locks. *)

open Daemon_core

(* The {!lookup_stats} counters, bumped in place on every lookup; [stats]
   copies them out. *)
let homed = 0
let rdir_hit = 1
let cluster_hit = 2
let map_walk = 3
let walk_depth = 4
let cluster_walk_found = 5
let failure = 6

type t = {
  c : Daemon_core.t;
  rdir : Region_directory.t;
  counts : int array;
}

let create c =
  { c; rdir = Region_directory.create ~capacity:c.cfg.rdir_capacity;
    counts = Array.make 7 0 }

let stats t =
  let n i = t.counts.(i) in
  { homed_hits = n homed; rdir_hits = n rdir_hit; cluster_hits = n cluster_hit;
    map_walks = n map_walk; map_walk_depth_total = n walk_depth;
    cluster_walks = n cluster_walk_found; failures = n failure }

let reset_stats t = Array.fill t.counts 0 (Array.length t.counts) 0

(* A crash forgets every cached descriptor. *)
let crash t =
  List.iter
    (fun r -> Region_directory.remove t.rdir r.Region.base)
    (Region_directory.entries t.rdir)

(* -- address map IO over our own lock/read/write primitives -- *)

(* Raised when map pages cannot be locked or fetched (home unreachable);
   caught at the operation boundary and reflected as [`Unavailable]. *)
exception Map_unavailable of string

let map_page_read c ctx i =
  let region = c.map_region in
  let page = Layout.map_page_addr i in
  match acquire_page c ctx region page Ctypes.Read ~timeout:c.cfg.lock_timeout with
  | Error e ->
    raise (Map_unavailable ("map read: " ^ error_to_string e))
  | Ok () ->
    let bytes = Store.read_immediate c.store page in
    release_page c ctx page Ctypes.Read ~data:None;
    (match bytes with
     | Some b -> Address_map.Node.decode b
     | None -> raise (Map_unavailable "map page vanished under read lock"))

let map_page_write_locked c i node =
  (* Caller holds the write lock on page i. *)
  let page = Layout.map_page_addr i in
  Store.write_immediate c.store page (Address_map.Node.encode node) ~dirty:true

let map_io c ctx : Address_map.io =
  let read_page i = map_page_read c ctx i in
  let mutate f =
    let region = c.map_region in
    let root_page = Layout.map_page_addr 0 in
    match acquire_page c ctx region root_page Ctypes.Write ~timeout:c.cfg.lock_timeout with
    | Error e -> raise (Map_unavailable ("map mutation: " ^ error_to_string e))
    | Ok () ->
      let root =
        match Store.read_immediate c.store root_page with
        | Some b -> Address_map.Node.decode b
        | None -> raise (Map_unavailable "map root missing")
      in
      let write i node =
        if i = 0 then map_page_write_locked c 0 node
        else begin
          let page = Layout.map_page_addr i in
          match acquire_page c ctx region page Ctypes.Write ~timeout:c.cfg.lock_timeout with
          | Error e -> raise (Map_unavailable ("map write: " ^ error_to_string e))
          | Ok () ->
            map_page_write_locked c i node;
            let data = Store.read_immediate c.store page in
            release_page c ctx page Ctypes.Write ~data
        end
      in
      let read i = if i = 0 then root else read_page i in
      Fun.protect
        ~finally:(fun () ->
          (* Always rewrite + release the root so its write propagates. *)
          let data = Store.read_immediate c.store root_page in
          release_page c ctx root_page Ctypes.Write ~data)
        (fun () ->
          f ~root ~read ~write;
          map_page_write_locked c 0 root)
  in
  { Address_map.read_page; mutate }

let bootstrap_map c =
  if c.id <> c.bootstrap then invalid_arg "Daemon.bootstrap_map: wrong node";
  let region = c.map_region in
  Gaddr.Table.replace c.homed region.Region.base region;
  note_homed_put c region;
  let root = Address_map.Node.empty_root () in
  Store.write_immediate c.store (Layout.map_page_addr 0)
    (Address_map.Node.encode root) ~dirty:false;
  (* Record the map region itself in the map, so tree walks can resolve
     metadata addresses uniformly. *)
  let io = map_io c Op_ctx.background in
  match
    Address_map.insert io
      {
        Address_map.base = region.Region.base;
        len = region.Region.len;
        page_size = Layout.map_page_size;
        homes = [ c.bootstrap ];
      }
  with
  | Ok () -> ()
  | Error e -> failwith ("bootstrap_map: " ^ e)

(* -- location -- *)

(* What a node tells an asker about the region containing [addr]: its
   homed table first, then its cached descriptors. *)
let descriptor t addr =
  match homed_containing t.c addr with
  | Some r -> Some r
  | None -> Region_directory.find t.rdir addr

(* Fetch a descriptor from one of the candidate holder nodes; suspected
   holders are asked last so a healthy candidate answers first. *)
let fetch_descriptor t ctx ~addr candidates =
  let rec try_nodes = function
    | [] -> None
    | node :: rest -> (
      match ask t.c ctx ~dst:node (Wire.Get_descriptor { addr }) with
      | Ok (Wire.R_descriptor (Some desc)) -> Some desc
      | Ok _ | Error (`Timeout | `Unreachable) -> try_nodes rest)
  in
  try_nodes (Detector.prioritise_live t.c.fd candidates)

(* A cluster manager answers lookups and walks from the hints its members
   report. *)
let cluster_lookup c addr =
  match c.cm_state with
  | Some cm ->
    let desc, holders = Cluster.lookup cm addr in
    Wire.R_lookup { desc; holders }
  | None -> Wire.R_error "not a cluster manager"

let count t i name =
  t.counts.(i) <- t.counts.(i) + 1;
  Metrics.incr t.c.metrics name

let fail t error =
  count t failure "locate.failure";
  Error (`Unavailable error)

let found_by_walk t desc =
  count t cluster_walk_found "locate.cluster_walk";
  Region_directory.put t.rdir desc;
  Ok desc

let rec locate_once ~walk t ctx addr =
  let c = t.c in
  if Region.contains c.map_region addr then Ok c.map_region
  else
    match homed_containing c addr with
    | Some r ->
      count t homed "locate.homed_hit";
      Ok r
    | None -> (
      match Region_directory.find t.rdir addr with
      | Some r ->
        count t rdir_hit "locate.rdir_hit";
        Ok r
      | None -> (
        (* Ask the cluster manager before touching the tree (§3.5). *)
        match ask c ctx ~dst:c.cluster_manager (Wire.Cluster_lookup { addr }) with
        | Ok (Wire.R_lookup { desc = Some desc; _ }) ->
          count t cluster_hit "locate.cluster_hit";
          Region_directory.put t.rdir desc;
          Ok desc
        | Ok _ | Error (`Timeout | `Unreachable) -> (
          (* Full address-map tree walk. *)
          match Address_map.lookup (map_io c ctx) addr with
          | exception Map_unavailable why -> cluster_walk t ctx addr why
          | result -> (
            count t map_walk "locate.map_walk";
            t.counts.(walk_depth) <-
              t.counts.(walk_depth) + result.Address_map.depth;
            match result.Address_map.entry with
            | Some entry -> (
              match fetch_descriptor t ctx ~addr entry.Address_map.homes with
              | Some desc ->
                Region_directory.put t.rdir desc;
                Ok desc
              | None -> cluster_walk t ctx addr "region home unreachable")
            | None ->
              (* An absent entry usually means a release-consistent map
                 update is still in flight; the caller's retry loop
                 handles that. Walk the clusters only on the final
                 attempt. *)
              if walk then cluster_walk t ctx addr "address not reserved"
              else fail t "address not reserved"))))

(* "If the set of nodes specified in a given region's address map entry is
   stale, the region can still be located using a cluster-walk algorithm"
   (§3.1): when the tree fails us — stale homes, or the map itself
   unavailable — ask the other clusters' managers whether anyone nearby
   caches the region. *)
and cluster_walk t ctx addr fallback_error =
  let rec walk = function
    | [] -> fail t fallback_error
    | manager :: rest -> (
      match ask t.c ctx ~dst:manager (Wire.Cluster_walk { addr }) with
      | Ok (Wire.R_lookup { desc = Some desc; _ }) -> found_by_walk t desc
      | Ok (Wire.R_lookup { desc = None; holders }) -> (
        (* No descriptor hint, but maybe holder nodes we can query. *)
        match fetch_descriptor t ctx ~addr holders with
        | Some desc -> found_by_walk t desc
        | None -> walk rest)
      | Ok _ | Error (`Timeout | `Unreachable) -> walk rest)
  in
  walk (Detector.prioritise_live t.c.fd t.c.peer_managers)

(* "Khazana operations are repeatedly tried ... until they succeed or
   timeout" (§3.5). A miss may just mean a release-consistent map update is
   still in flight, so back off briefly and retry before reflecting the
   error. *)
let rec locate_retrying t ctx addr backoff attempt =
  match locate_once ~walk:(attempt >= 3) t ctx addr with
  | Ok _ as ok -> ok
  | Error _ as e when attempt >= 4 -> e
  | Error _ ->
    retry_pause t.c backoff ~base:(Ksim.Time.ms 25);
    locate_retrying t ctx addr backoff (attempt + 1)

let locate t ctx addr =
  let c = t.c in
  let t0 = Ksim.Engine.now c.engine in
  let span =
    if traced ctx then
      span_of c ctx "daemon.locate" (fun () -> [ ("addr", Gaddr.to_string addr) ])
    else Trace.null
  in
  let ctx = Op_ctx.with_span ctx span in
  let result = locate_retrying t ctx addr (ref None) 0 in
  Metrics.observe c.metrics "locate.ms"
    (Ksim.Time.to_ms_f (Ksim.Engine.now c.engine - t0));
  finish_result c span result

(* Region directories may serve stale attributes; before acting on a
   denial (or an unallocated state), refetch the descriptor from its home
   so recent set_attr/allocate calls are honoured. *)
let refresh t ctx (region : Region.t) =
  match
    ask t.c ctx ~dst:region.Region.home
      (Wire.Get_descriptor { addr = region.Region.base })
  with
  | Ok (Wire.R_descriptor (Some fresh)) ->
    Region_directory.put t.rdir fresh;
    Some fresh
  | Ok _ | Error (`Timeout | `Unreachable) -> None
