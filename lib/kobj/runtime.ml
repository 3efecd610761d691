module Gaddr = Kutil.Gaddr
module Codec = Kutil.Codec
module Client = Khazana.Client
module Attr = Khazana.Attr
module Region = Khazana.Region
module Topology = Knet.Topology

type error =
  [ Khazana.Daemon.error
  | `Unknown_class of string
  | `Unknown_method of string
  | `Unknown_object
  | `Remote_failure of string
  | `Corrupt of string ]

let error_to_string : error -> string = function
  | #Khazana.Daemon.error as e -> Khazana.Daemon.error_to_string e
  | `Unknown_class c -> "unknown class: " ^ c
  | `Unknown_method m -> "unknown method: " ^ m
  | `Unknown_object -> "unknown object"
  | `Remote_failure s -> "remote failure: " ^ s
  | `Corrupt s -> "corrupt object: " ^ s

let ( let* ) = Result.bind
let lift (r : ('a, Khazana.Daemon.error) result) : ('a, error) result =
  (r :> ('a, error) result)

type method_impl = state:bytes -> arg:bytes -> bytes * bytes option
type class_def = { class_name : string; methods : (string * method_impl) list }
type obj = { addr : Gaddr.t }
type placement = Own_region | Pooled

(* ------------------------------------------------------------------ *)
(* Object headers                                                      *)
(* ------------------------------------------------------------------ *)

let obj_magic = 0x4B4F424A (* "KOBJ" *)
let slot_size = 256
let pool_pages = 16

type header = { cls : string; refcount : int; state : bytes }

let encode_header h =
  let e = Codec.encoder () in
  Codec.u32 e obj_magic;
  Codec.string e h.cls;
  Codec.u32 e h.refcount;
  Codec.bytes e h.state;
  Codec.to_bytes e

let decode_header bytes =
  let d = Codec.decoder bytes in
  let m = Codec.read_u32 d in
  if m <> obj_magic then raise (Codec.Decode_error "bad object magic");
  let cls = Codec.read_string d in
  let refcount = Codec.read_u32 d in
  let state = Codec.read_bytes d in
  { cls; refcount; state }

let header_overhead cls = 4 + 4 + String.length cls + 4 + 4

(* ------------------------------------------------------------------ *)
(* Overlay                                                             *)
(* ------------------------------------------------------------------ *)

module Overlay_proto = struct
  type request = { obj_addr : Gaddr.t; meth : string; arg : bytes }
  type response = R_ok of bytes | R_err of string

  let encode_request enc r =
    Codec.u128 enc r.obj_addr;
    Codec.string enc r.meth;
    Codec.bytes enc r.arg

  let encode_response enc = function
    | R_ok b ->
      Codec.u8 enc 0;
      Codec.bytes enc b
    | R_err s ->
      Codec.u8 enc 1;
      Codec.string enc s

  let request_kind _ = "obj.invoke"
end

module Overlay = struct
  module T = Krpc.Rpc.Make (Overlay_proto)

  type t = { transport : T.t }

  let create engine topology = { transport = T.create engine topology }
end

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

type stats = { local_invocations : int; remote_invocations : int }

type t = {
  overlay : Overlay.t;
  client : Client.t;
  node : Topology.node_id;
  classes : (string, class_def) Hashtbl.t;
  (* pooled-slot allocator: one pool region, bump-with-freelist *)
  mutable pool : Region.t option;
  mutable next_slot : int;
  mutable free_slots : int list;
  mutable local_invocations : int;
  mutable remote_invocations : int;
  access_counts : int Gaddr.Table.t;
      (* per-object invocation history driving the ship-vs-migrate choice *)
}

(* After this many invocations of a non-resident object, stop shipping
   calls and fault a replica in locally. *)
let migrate_threshold = 2

let stats t =
  { local_invocations = t.local_invocations;
    remote_invocations = t.remote_invocations }

let register_class t cls = Hashtbl.replace t.classes cls.class_name cls

(* ---- locking helpers: an object's lock unit is its slot (pooled) or
   its whole region (own-region); both sit within one page in practice. *)

(* Own-region objects occupy exactly one page-sized region (enforced at
   creation); anything else is a pooled slot inside a larger region. *)
let object_extent t addr =
  match Khazana.Daemon.locate_region (Client.daemon t.client) addr with
  | Error e -> Error (e :> error)
  | Ok region ->
    if Gaddr.equal region.Region.base addr
       && region.Region.len = region.Region.attr.Attr.page_size
    then Ok (addr, region.Region.len)
    else Ok (addr, slot_size)

let with_object_lock t addr mode f =
  let* addr, len = object_extent t addr in
  match Client.lock t.client ~addr ~len mode with
  | Error e -> Error (e :> error)
  | Ok ctx ->
    Fun.protect
      ~finally:(fun () -> Client.unlock t.client ctx)
      (fun () -> f ctx ~len)

let read_header t ctx ~addr ~len =
  let* raw = lift (Client.read t.client ctx ~addr ~len) in
  try Ok (decode_header raw) with Codec.Decode_error m -> Error (`Corrupt m)

let write_header t ctx ~addr ~len h =
  let raw = encode_header h in
  if Bytes.length raw > len then Error (`Corrupt "object state overflows slot")
  else begin
    let padded = Bytes.make len '\000' in
    Bytes.blit raw 0 padded 0 (Bytes.length raw);
    lift (Client.write t.client ctx ~addr padded)
  end

(* ---- allocation ---- *)

let ensure_pool t ~attr =
  match t.pool with
  | Some r -> Ok r
  | None ->
    let len = pool_pages * attr.Attr.page_size in
    let* r = lift (Client.create_region t.client ~attr len) in
    t.pool <- Some r;
    Ok r

let alloc_slot t ~attr =
  let* pool = ensure_pool t ~attr in
  match t.free_slots with
  | slot :: rest ->
    t.free_slots <- rest;
    Ok (Gaddr.add_int pool.Region.base (slot * slot_size))
  | [] ->
    let capacity = pool.Region.len / slot_size in
    if t.next_slot >= capacity then Error (`Unavailable "object pool full")
    else begin
      let slot = t.next_slot in
      t.next_slot <- slot + 1;
      Ok (Gaddr.add_int pool.Region.base (slot * slot_size))
    end

let new_object t ~class_name ?(placement = Own_region) ?attr ~init () =
  if not (Hashtbl.mem t.classes class_name) then Error (`Unknown_class class_name)
  else begin
    let attr =
      match attr with
      | Some a -> a
      | None -> Attr.make ~owner:(Client.principal t.client) ()
    in
    let header = { cls = class_name; refcount = 1; state = init } in
    let needed = header_overhead class_name + Bytes.length init in
    match placement with
    | Own_region when needed > attr.Attr.page_size ->
      Error (`Corrupt "object too big for a region page")
    | Own_region ->
      let len = attr.Attr.page_size in
      let* region = lift (Client.create_region t.client ~attr len) in
      let addr = region.Region.base in
      let* () =
        with_object_lock t addr Kconsistency.Types.Write (fun ctx ~len ->
            write_header t ctx ~addr ~len header)
      in
      Ok { addr }
    | Pooled ->
      if needed > slot_size then Error (`Corrupt "object too big for a pooled slot")
      else
        let* addr = alloc_slot t ~attr in
        let* () =
          with_object_lock t addr Kconsistency.Types.Write (fun ctx ~len ->
              write_header t ctx ~addr ~len header)
        in
        Ok { addr }
  end

(* ---- invocation ---- *)

let run_method t cls_name meth ~state ~arg =
  match Hashtbl.find_opt t.classes cls_name with
  | None -> Error (`Unknown_class cls_name)
  | Some cls -> (
    match List.assoc_opt meth cls.methods with
    | None -> Error (`Unknown_method meth)
    | Some f -> Ok (f ~state ~arg))

let invoke_local t obj ~meth ~arg =
  t.local_invocations <- t.local_invocations + 1;
  with_object_lock t obj.addr Kconsistency.Types.Write (fun ctx ~len ->
      let* h = read_header t ctx ~addr:obj.addr ~len in
      let* result, new_state = run_method t h.cls meth ~state:h.state ~arg in
      match new_state with
      | None -> Ok result
      | Some state ->
        let* () = write_header t ctx ~addr:obj.addr ~len { h with state } in
        Ok result)

let invoke_at t node obj ~meth ~arg =
  if node = t.node then invoke_local t obj ~meth ~arg
  else begin
    t.remote_invocations <- t.remote_invocations + 1;
    match
      Overlay.T.call t.overlay.Overlay.transport ~src:t.node ~dst:node
        ~policy:(Krpc.Policy.with_timeout (Ksim.Time.sec 2))
        { Overlay_proto.obj_addr = obj.addr; meth; arg }
    with
    | Ok (Overlay_proto.R_ok bytes) -> Ok bytes
    | Ok (Overlay_proto.R_err e) -> Error (`Remote_failure e)
    | Error (`Timeout | `Unreachable) -> Error `Timeout
  end

(* "It also could use location information exported from Khazana to decide
   if it is more efficient to load a local copy of the object or perform a
   remote invocation of the object on a node where it is already physically
   instantiated."

   Policy: objects with a local copy run locally; otherwise occasional
   calls ship to a node known to instantiate the object (a page-directory
   sharer hint, falling back to the region's home), while repeated use —
   [migrate_threshold] or more calls — faults a replica in and goes local
   from then on. *)
let invoke t obj ~meth ~arg =
  let daemon = Client.daemon t.client in
  let region = Khazana.Daemon.locate_region daemon obj.addr in
  let holds =
    match region with
    | Ok r ->
      let page =
        Gaddr.page_floor obj.addr ~page_size:r.Region.attr.Attr.page_size
      in
      Khazana.Daemon.holds_page daemon page
    | Error _ -> false
  in
  if holds then invoke_local t obj ~meth ~arg
  else begin
    let uses =
      1 + Option.value (Gaddr.Table.find_opt t.access_counts obj.addr) ~default:0
    in
    Gaddr.Table.replace t.access_counts obj.addr uses;
    let candidate =
      if uses >= migrate_threshold then None (* hot: replicate locally *)
      else
        match region with
        | Error _ -> None
        | Ok r -> (
          let page =
            Gaddr.page_floor obj.addr ~page_size:r.Region.attr.Attr.page_size
          in
          let pdir = Khazana.Daemon.page_directory daemon in
          let hint =
            match Khazana.Page_directory.find pdir page with
            | Some entry ->
              List.find_opt (fun n -> n <> t.node)
                entry.Khazana.Page_directory.sharers
            | None -> None
          in
          match hint with
          | Some _ as h -> h
          | None -> if r.Region.home <> t.node then Some r.Region.home else None)
    in
    match candidate with
    | Some node -> invoke_at t node obj ~meth ~arg
    | None -> invoke_local t obj ~meth ~arg (* fault it in *)
  end

(* ---- reference counting ---- *)

let update_refcount t obj delta =
  with_object_lock t obj.addr Kconsistency.Types.Write (fun ctx ~len ->
      let* h = read_header t ctx ~addr:obj.addr ~len in
      let refcount = max 0 (h.refcount + delta) in
      let* () = write_header t ctx ~addr:obj.addr ~len { h with refcount } in
      Ok refcount)

let incref t obj = update_refcount t obj 1

let release_storage t obj =
  match t.pool with
  | Some pool
    when Gaddr.compare pool.Region.base obj.addr <= 0
         && Gaddr.compare obj.addr (Region.end_ pool) < 0 ->
    (* A pooled slot: recycle it locally. *)
    let slot = Gaddr.diff obj.addr pool.Region.base / slot_size in
    t.free_slots <- slot :: t.free_slots
  | Some _ | None ->
    Client.free t.client obj.addr;
    Client.unreserve t.client obj.addr

let decref t obj =
  let* refcount = update_refcount t obj (-1) in
  if refcount = 0 then release_storage t obj;
  Ok refcount

let get_state t obj =
  with_object_lock t obj.addr Kconsistency.Types.Read (fun ctx ~len ->
      let* h = read_header t ctx ~addr:obj.addr ~len in
      Ok h.state)

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let create overlay client =
  let daemon = Client.daemon client in
  let node = Khazana.Daemon.id daemon in
  let t =
    {
      overlay;
      client;
      node;
      classes = Hashtbl.create 8;
      pool = None;
      next_slot = 0;
      free_slots = [];
      local_invocations = 0;
      remote_invocations = 0;
      access_counts = Gaddr.Table.create 32;
    }
  in
  Overlay.T.set_server overlay.Overlay.transport node (fun ~src:_ ~span:_ req ~reply ->
      Ksim.Fiber.spawn
        (Khazana.Daemon.engine daemon)
        ~name:"obj-serve"
        (fun () ->
          match
            invoke_local t
              { addr = req.Overlay_proto.obj_addr }
              ~meth:req.Overlay_proto.meth ~arg:req.Overlay_proto.arg
          with
          | Ok bytes -> reply (Overlay_proto.R_ok bytes)
          | Error e -> reply (Overlay_proto.R_err (error_to_string e))));
  t
