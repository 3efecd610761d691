module Gaddr = Kutil.Gaddr

(* A hint keeps the descriptor its first claimant reported, and how many
   members claim it now; it goes when the count reaches zero. [mark] is
   the number of the last report that listed it. *)
type hint = { desc : Region.t; mutable claims : int; mutable mark : int }

(* The hint of each base a member claims. *)
type member = { node : Knet.Topology.node_id; claimed : hint Gaddr.Table.t }

type t = {
  cluster_id : int;
  mutable next_chunk_index : int;
  mutable hints : hint Gaddr.Map.t;  (* by region base *)
  mutable members : member list;  (* most recent reporter first *)
  mutable reports : int;
  free_pool : (Knet.Topology.node_id, int) Hashtbl.t;
  last_seen : (Knet.Topology.node_id, Ksim.Time.t) Hashtbl.t;
}

let create ~cluster_id =
  {
    cluster_id;
    next_chunk_index = 0;
    hints = Gaddr.Map.empty;
    members = [];
    reports = 0;
    free_pool = Hashtbl.create 16;
    last_seen = Hashtbl.create 16;
  }

let heartbeat t ~node ~now = Hashtbl.replace t.last_seen node now

let suspects t ~now ~timeout =
  Hashtbl.fold
    (fun node seen acc -> if now - seen > timeout then node :: acc else acc)
    t.last_seen []
  |> List.sort compare

let next_chunk t =
  let base = Layout.chunk_addr ~cluster:t.cluster_id ~index:t.next_chunk_index in
  t.next_chunk_index <- t.next_chunk_index + 1;
  (base, Layout.chunk_size)

(* The reporting member, moved to the front of [members]. *)
let reporter t node =
  match t.members with
  | m :: _ when m.node = node -> m
  | members ->
    let m =
      match List.find_opt (fun m -> m.node = node) members with
      | Some m -> m
      | None -> { node; claimed = Gaddr.Table.create 16 }
    in
    t.members <- m :: List.filter (fun m' -> m' != m) members;
    m

let claim t m ~stamp desc =
  let base = desc.Region.base in
  let hint =
    match Gaddr.Map.find base t.hints with
    | hint -> hint
    | exception Not_found ->
      let hint = { desc; claims = 0; mark = stamp } in
      t.hints <- Gaddr.Map.add base hint t.hints;
      hint
  in
  hint.claims <- hint.claims + 1;
  hint.mark <- stamp;
  Gaddr.Table.add m.claimed base hint

(* Marks every base the report lists, claiming the new ones. Returns how
   many earlier claims it listed again and how many it added; a base
   listed twice counts once. *)
let rec take_report t m ~stamp ~kept ~added = function
  | [] -> (kept, added)
  | desc :: rest -> (
    match Gaddr.Table.find m.claimed desc.Region.base with
    | hint when hint.mark = stamp -> take_report t m ~stamp ~kept ~added rest
    | hint ->
      hint.mark <- stamp;
      take_report t m ~stamp ~kept:(kept + 1) ~added rest
    | exception Not_found ->
      claim t m ~stamp desc;
      take_report t m ~stamp ~kept ~added:(added + 1) rest)

let drop_stale t m ~stamp =
  Gaddr.Table.fold
    (fun _ hint acc -> if hint.mark <> stamp then hint :: acc else acc)
    m.claimed []
  |> List.iter (fun hint ->
         let base = hint.desc.Region.base in
         Gaddr.Table.remove m.claimed base;
         hint.claims <- hint.claims - 1;
         if hint.claims = 0 then t.hints <- Gaddr.Map.remove base t.hints)

(* Only the report's own entries are visited, plus the claims it dropped:
   when every earlier claim was listed again there is nothing to drop. *)
let record_report ?now t ~node ~regions ~free_bytes =
  (match now with Some now -> heartbeat t ~node ~now | None -> ());
  Hashtbl.replace t.free_pool node free_bytes;
  let m = reporter t node in
  t.reports <- t.reports + 1;
  let stamp = t.reports in
  let before = Gaddr.Table.length m.claimed in
  let kept, added = take_report t m ~stamp ~kept:0 ~added:0 regions in
  let dropped = before - kept in
  if dropped > 0 then drop_stale t m ~stamp;
  added + dropped

(* Members that claim [base], most recent reporter first. *)
let rec holders base = function
  | [] -> []
  | m :: rest ->
    if Gaddr.Table.mem m.claimed base then m.node :: holders base rest
    else holders base rest

(* The predecessor is the only candidate: hints describe regions, and
   regions never overlap. *)
let lookup t addr =
  match Gaddr.Map.find_last_opt (fun base -> Gaddr.compare base addr <= 0) t.hints with
  | Some (base, hint) when Region.contains hint.desc addr ->
    (Some hint.desc, holders base t.members)
  | Some _ | None -> (None, [])

let free_bytes_hint t =
  Hashtbl.fold (fun n b acc -> (n, b) :: acc) t.free_pool []
  |> List.sort compare

let chunks_granted t = t.next_chunk_index
