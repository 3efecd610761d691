module Gaddr = Kutil.Gaddr
module Codec = Kutil.Codec

type entry = {
  region_base : Gaddr.t;
  homed_here : bool;
  mutable sharers : Knet.Topology.node_id list;
}

type t = entry Gaddr.Table.t

let create () = Gaddr.Table.create 16

let ensure t ~page ~region_base ~homed_here =
  match Gaddr.Table.find_opt t page with
  | Some e -> e
  | None ->
    let e = { region_base; homed_here; sharers = [] } in
    Gaddr.Table.replace t page e;
    e

let find t page = Gaddr.Table.find_opt t page

let set_sharers t page sharers =
  match Gaddr.Table.find_opt t page with
  | Some e -> e.sharers <- sharers
  | None -> ()

let remove t page = Gaddr.Table.remove t page

let crash t = Gaddr.Table.reset t

let length t = Gaddr.Table.length t
let fold f t acc = Gaddr.Table.fold f t acc

(* Authoritative (homed-here) entries are the directory's persistent state;
   hint entries for remote pages are rebuilt from traffic. Sorted by page so
   the snapshot bytes are a pure function of the directory's contents. *)
let encode_persistent t e =
  let homed =
    Gaddr.Table.fold
      (fun page entry acc ->
        if entry.homed_here then (page, entry) :: acc else acc)
      t []
  in
  let homed = List.sort (fun (a, _) (b, _) -> Gaddr.compare a b) homed in
  Codec.list e
    (fun (page, entry) ->
      Codec.u128 e page;
      Codec.u128 e entry.region_base;
      Codec.list e (fun n -> Codec.int e n) entry.sharers)
    homed

let decode_persistent t d =
  let entries =
    Codec.read_list d (fun () ->
        let page = Codec.read_u128 d in
        let region_base = Codec.read_u128 d in
        let sharers = Codec.read_list d (fun () -> Codec.read_int d) in
        (page, region_base, sharers))
  in
  List.iter
    (fun (page, region_base, sharers) ->
      let e = ensure t ~page ~region_base ~homed_here:true in
      e.sharers <- sharers)
    entries
