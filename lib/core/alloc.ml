(* Address space and storage allocation (§2): reserve, allocate, free,
   unreserve, and region attributes. Owns this node's pool of unreserved
   address space, carved from chunks its cluster manager grants. Every
   home-side step is the handler of a request, so the region's home runs
   the same code whether the caller is itself or a peer. *)

open Daemon_core

type t = {
  c : Daemon_core.t;
  loc : Locate.t;
  mutable pool : (Gaddr.t * int) list;
}

let create loc = { c = loc.Locate.c; loc; pool = [] }

let pool_bytes t = List.fold_left (fun acc (_, len) -> acc + len) 0 t.pool

let take_from_pool t len =
  let rec go acc = function
    | [] -> None
    | (base, span) :: rest ->
      if span >= len then begin
        let remainder =
          if span > len then [ (Gaddr.add_int base len, span - len) ] else []
        in
        t.pool <- List.rev_append acc (remainder @ rest);
        Some base
      end
      else go ((base, span) :: acc) rest
  in
  go [] t.pool

(* Fold a freshly granted chunk into the pool, coalescing with an adjacent
   span so that reservations larger than one chunk can be satisfied from
   consecutive grants. *)
let add_chunk_to_pool t base len =
  let rec merge acc = function
    | [] -> List.rev ((base, len) :: acc)
    | (b, l) :: rest when Gaddr.equal (Gaddr.add_int b l) base ->
      List.rev_append acc ((b, l + len) :: rest)
    | span :: rest -> merge (span :: acc) rest
  in
  t.pool <- merge [] t.pool

let request_chunk t ctx =
  match ask t.c ctx ~dst:t.c.cluster_manager Wire.Chunk_request with
  | Ok (Wire.R_chunk { base; len }) ->
    add_chunk_to_pool t base len;
    true
  | Ok _ | Error (`Timeout | `Unreachable) -> false

let reserve t ?attr ~ctx len =
  let c = t.c in
  let* () = serving c in
  let span =
    span_of c ctx "daemon.reserve" (fun () ->
        [ ("len", string_of_int len) ])
  in
  let ctx = Op_ctx.with_span ctx span in
  let attr =
    match attr with
    | Some a -> a
    | None -> Attr.make ~owner:(Op_ctx.principal ctx) ()
  in
  let page_size = attr.Attr.page_size in
  let len = (max len 1 + page_size - 1) / page_size * page_size in
  let rec obtain attempts =
    match take_from_pool t len with
    | Some base -> Some base
    | None ->
      if attempts > 0 && request_chunk t ctx then obtain (attempts - 1)
      else None
  in
  (* A reservation larger than the chunk size needs several chunks; chunks
     are contiguous per cluster so consecutive grants coalesce. *)
  let needed_chunks = (len / Layout.chunk_size) + 2 in
  finish_result c span
  @@
  match obtain needed_chunks with
  | None -> Error (`Unavailable "no address space available")
  | Some base -> (
    let region = Region.make ~base ~len ~attr ~home:c.id in
    match
      Address_map.insert (Locate.map_io c ctx)
        { Address_map.base; len; page_size; homes = [ c.id ] }
    with
    | Error e -> Error (`Conflict e)
    | Ok () ->
      Gaddr.Table.replace c.homed base region;
      note_homed_put c region;
      Region_directory.put t.loc.rdir region;
      Ok region)

(* -- the home's side of each request -- *)

(* The caller's descriptor stands in when the home lost its own (recovered
   from a crash): adopt it. *)
let serve_alloc t (desc : Region.t) =
  if desc.Region.home <> t.c.id then Wire.R_error "not my region"
  else begin
    let region =
      Option.value (Gaddr.Table.find_opt t.c.homed desc.Region.base) ~default:desc
    in
    let allocated = Region.allocated region in
    Gaddr.Table.replace t.c.homed region.Region.base allocated;
    note_homed_put t.c allocated;
    Region_directory.put t.loc.rdir allocated;
    Wire.R_unit
  end

let free_local t base =
  let c = t.c in
  match Gaddr.Table.find_opt c.homed base with
  | None -> ()
  | Some region ->
    (* The whole free is one logged intent: without the transaction, a
       crash between page drops would resurrect half the region's pages at
       replay and not the rest. *)
    let reserved = { region with Region.state = Region.Reserved } in
    let pages = Region.pages region in
    let tx = Wal.begin_tx c.wal in
    List.iter
      (fun page ->
        let e = Codec.encoder () in
        Codec.u128 e page;
        Wal.log_note c.wal tx "page.free" (Codec.to_bytes e))
      pages;
    Wal.log_note c.wal tx "homed.put" (encode_region reserved);
    Wal.commit c.wal tx;
    List.iter
      (fun page ->
        Gaddr.Table.remove c.machines page;
        Store.drop c.store page;
        Page_directory.remove c.pdir page)
      pages;
    Gaddr.Table.replace c.homed base reserved;
    Region_directory.put t.loc.rdir reserved

(* Blocks on the address map: a peer's request is served in a fiber. *)
let serve_unreserve t ctx base =
  let c = t.c in
  free_local t base;
  Gaddr.Table.remove c.homed base;
  note_homed_del c base;
  Region_directory.remove t.loc.rdir base;
  ignore (Address_map.remove (Locate.map_io c ctx) base);
  Wire.R_unit

let serve_set_attr t base attr =
  let c = t.c in
  match Gaddr.Table.find_opt c.homed base with
  | Some region ->
    let region' = { region with Region.attr = attr } in
    Gaddr.Table.replace c.homed base region';
    note_homed_put c region';
    Region_directory.put t.loc.rdir region';
    redescribe c region';
    Wire.R_unit
  | None -> Wire.R_error "unknown region"

let serve_chunk c =
  match c.cm_state with
  | Some cm ->
    let base, len = Cluster.next_chunk cm in
    Wire.R_chunk { base; len }
  | None -> Wire.R_error "not a cluster manager"

(* -- client operations -- *)

(* A traced operation on the region whose base is [base], run at its
   home: allocate and set_attr. *)
let on_region t ~ctx ~name base f =
  let c = t.c in
  let* () = serving c in
  let span = span_of c ctx name (fun () -> [ ("base", Gaddr.to_string base) ]) in
  let ctx = Op_ctx.with_span ctx span in
  finish_result c span
  @@
  let* region = Locate.locate t.loc ctx base in
  if not (Gaddr.equal region.Region.base base) then Error `Bad_range
  else f ctx region

let allocate t ~ctx base =
  on_region t ~ctx ~name:"daemon.allocate" base @@ fun ctx region ->
  if region.Region.state = Region.Allocated then Ok ()
  else
    ask_for t.c ctx ~dst:region.Region.home (Wire.Alloc_region { desc = region })
      (function
        | Wire.R_unit ->
          Region_directory.put t.loc.rdir (Region.allocated region);
          Some ()
        | _ -> None)

(* Release-class operations (§3.5) never reflect an error: once the
   region is located, the home's leg retries in the background until it
   lands. *)
let release_class t ~ctx base k =
  if t.c.up then
    match Locate.locate t.loc ctx base with
    | Error _ -> ()
    | Ok region -> k region

let release_attempt c ~dst req () =
  match ask c Op_ctx.background ~dst req with
  | Ok Wire.R_unit -> true
  | Ok _ | Error (`Timeout | `Unreachable) -> false

(* A free the home asks of itself cannot fail to reach it, so it completes
   before [free] returns; only a remote home's leg goes to the background. *)
let free t ~ctx base =
  release_class t ~ctx base @@ fun region ->
  Region_directory.remove t.loc.rdir region.Region.base;
  let home = region.Region.home in
  let attempt = release_attempt t.c ~dst:home (Wire.Free_region { base }) in
  if not (home = t.c.id && attempt ()) then
    background_retry t.c ~name:"free" attempt

(* Unreserving blocks on the address map, so even the home's own leg runs
   in the background. *)
let unreserve t ~ctx base =
  release_class t ~ctx base @@ fun region ->
  Region_directory.remove t.loc.rdir base;
  background_retry t.c ~name:"unreserve"
    (release_attempt t.c ~dst:region.Region.home (Wire.Unreserve_region { base }))

let get_attr t ~ctx addr =
  let* () = serving t.c in
  let* region = Locate.locate t.loc ctx addr in
  Ok region.Region.attr

let set_attr t ~ctx base (attr : Attr.t) =
  on_region t ~ctx ~name:"daemon.set_attr" base @@ fun ctx region ->
  if Op_ctx.principal ctx <> region.Region.attr.Attr.owner then
    Error `Access_denied
  else begin
    (* Only policy fields may change after creation. *)
    let updated =
      { region.Region.attr with
        Attr.world = attr.Attr.world;
        min_replicas = attr.Attr.min_replicas;
      }
    in
    ask_for t.c ctx ~dst:region.Region.home (Wire.Set_attr { base; attr = updated })
      (function
        | Wire.R_unit ->
          Region_directory.put t.loc.rdir { region with Region.attr = updated };
          Some ()
        | _ -> None)
  end
