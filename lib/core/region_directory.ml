module Gaddr = Kutil.Gaddr

(* Descriptors keyed by region base in a sorted map (for containing-address
   lookups via predecessor search) with LRU bookkeeping by tick. [size]
   follows the map's cardinal, which [Gaddr.Map] can only count by a
   walk. *)

type entry = { desc : Region.t; mutable last_use : int }

type t = {
  capacity : int;
  mutable map : entry Gaddr.Map.t;
  mutable size : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Region_directory.create";
  { capacity; map = Gaddr.Map.empty; size = 0; tick = 0; hits = 0; misses = 0 }

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

(* [Gaddr.Map.remove] hands back the same map when the base is absent. *)
let remove t base =
  let map = Gaddr.Map.remove base t.map in
  if map != t.map then begin
    t.map <- map;
    t.size <- t.size - 1
  end

let evict_lru t =
  let victim =
    Gaddr.Map.fold
      (fun base e best ->
        match best with
        | Some (_, b) when b.last_use <= e.last_use -> best
        | _ -> Some (base, e))
      t.map None
  in
  match victim with
  | Some (base, _) -> remove t base
  | None -> ()

let put t desc =
  let base = desc.Region.base in
  remove t base;
  if t.size >= t.capacity then evict_lru t;
  let e = { desc; last_use = 0 } in
  touch t e;
  t.map <- Gaddr.Map.add base e t.map;
  t.size <- t.size + 1

let containing t addr =
  match Gaddr.Map.find_last_opt (fun base -> Gaddr.compare base addr <= 0) t.map with
  | Some (_, e) when Region.contains e.desc addr -> Some e
  | Some _ | None -> None

let find t addr =
  match containing t addr with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    Some e.desc
  | None ->
    t.misses <- t.misses + 1;
    None

let invalidate_containing t addr =
  match containing t addr with
  | Some e -> remove t e.desc.Region.base
  | None -> ()

let length t = t.size
let entries t = Gaddr.Map.fold (fun _ e acc -> e.desc :: acc) t.map []
let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
