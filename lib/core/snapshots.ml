(* MVCC snapshots over versioned regions, and the home's side of version
   queries ({!Wire.request.Page_version}).

   A snapshot is a per-page version pin table: empty at begin, filled
   lazily — the first read of each page pins it at the latest settled
   version that read observed, and every later read of that page through
   the same snapshot serves exactly the pinned version. Reads never
   acquire locks and never trigger invalidations; writers never wait for
   them. The price is expiry: a pin whose version falls off the home's
   bounded chain answers [`Unavailable], and the reader begins a fresh
   snapshot. *)

open Daemon_core

type t = {
  c : Daemon_core.t;
  loc : Locate.t;
  mutable next_snap : int;
  snapshots : (int, Ctypes.version Gaddr.Table.t) Hashtbl.t;
      (* snapshot id -> per-page pinned version; in-memory only *)
}

let create loc =
  { c = loc.Locate.c; loc; next_snap = 1; snapshots = Hashtbl.create 8 }

(* Open snapshots die with the node: their pins referenced version chains
   that no longer exist. Readers observe [`Unavailable]. *)
let crash t = Hashtbl.reset t.snapshots

(* Snapshot-pin resolution at the home: serve a retained version from the
   chain ([at = Some v]), or the latest settled image ([at = None]). A
   [R_page None] for a pinned version means the chain GC already
   reclaimed it — the reader's snapshot has expired for this page. *)
let serve_page_version c ~page ~region_base ~at =
  at_home c ~region_base page (fun slot ->
      Wire.R_page (Machine.packed_read_at slot.packed at))

let begin_ t =
  let* () = serving t.c in
  let id = t.next_snap in
  t.next_snap <- t.next_snap + 1;
  Hashtbl.replace t.snapshots id (Gaddr.Table.create 8);
  Metrics.incr t.c.metrics "snap.begin";
  Ok id

let release t snap = Hashtbl.remove t.snapshots snap

let ask_version c ctx (region : Region.t) page at =
  ask_for c ctx ~dst:region.Region.home
    (Wire.Page_version { page; region_base = region.Region.base; at })
    (function Wire.R_page r -> Some r | _ -> None)

(* Fetch [page] at exactly [at] (or latest settled when [None]): a local
   machine already holding it first — a cache copy sitting at the pinned
   version — then the home's chain. [Ok None] means the version is no
   longer retained anywhere. *)
let fetch c ctx (region : Region.t) page at =
  let local =
    match Gaddr.Table.find_opt c.machines page with
    | Some slot -> Machine.packed_read_at slot.packed at
    | None -> None
  in
  match local with
  | Some _ as r -> Ok r
  | None -> ask_version c ctx region page at

let read t ~ctx ~snap ~addr ~len =
  let c = t.c in
  let* () = serving c in
  let* pins =
    Option.to_result ~none:(`Unavailable "unknown snapshot")
      (Hashtbl.find_opt t.snapshots snap)
  in
  let* region = Locate.locate t.loc ctx addr in
  if not (versioned_region region) then
    Error (`Unavailable "snapshot reads need the versioned protocol")
  else if not (Region.contains_range region addr ~len) then Error `Bad_range
  else begin
    let span =
      span_of c ctx "daemon.snapshot_read" (fun () ->
          [ ("addr", Gaddr.to_string addr);
            ("len", string_of_int len);
            ("snap", string_of_int snap) ])
    in
    let ctx = Op_ctx.with_span ctx span in
    let out = Bytes.create len in
    finish_result c span
    @@
    let* () =
      each_page ~page_size:region.Region.attr.Attr.page_size addr ~len
        (fun page ~off ~pos ~n ->
          let pinned = Gaddr.Table.find_opt pins page in
          let* fetched = fetch c ctx region page pinned in
          match (fetched, pinned) with
          | Some (bytes, v), _ ->
            if Option.is_none pinned then Gaddr.Table.replace pins page v;
            Bytes.blit bytes off out pos n;
            Ok ()
          | None, Some _ ->
            Error (`Unavailable "snapshot version expired (chain GC)")
          | None, None -> Error (`Unavailable "page missing at home"))
    in
    Ok out
  end

(* The home's current version of the page containing [addr] — the token a
   write_cas caller passes back as [expected]. *)
let page_version t ~ctx ~addr =
  let* () = serving t.c in
  let* region = Locate.locate t.loc ctx addr in
  if not (versioned_region region) then
    Error (`Unavailable "page_version needs the versioned protocol")
  else
    let page =
      Gaddr.page_floor addr ~page_size:region.Region.attr.Attr.page_size
    in
    let* latest = ask_version t.c ctx region page None in
    Ok (match latest with Some (_, v) -> v | None -> 0)
