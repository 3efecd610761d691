module Gaddr = Kutil.Gaddr

type hint = { desc : Region.t; mutable holders : Knet.Topology.node_id list }

type t = {
  cluster_id : int;
  mutable next_chunk_index : int;
  hints : hint Gaddr.Table.t;  (* by region base *)
  free_pool : (Knet.Topology.node_id, int) Hashtbl.t;
  last_seen : (Knet.Topology.node_id, Ksim.Time.t) Hashtbl.t;
}

let create ~cluster_id =
  {
    cluster_id;
    next_chunk_index = 0;
    hints = Gaddr.Table.create 64;
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

let forget_node t node =
  Hashtbl.remove t.free_pool node;
  let empty =
    Gaddr.Table.fold
      (fun base hint acc ->
        hint.holders <- List.filter (fun n -> n <> node) hint.holders;
        if hint.holders = [] then base :: acc else acc)
      t.hints []
  in
  List.iter (Gaddr.Table.remove t.hints) empty

let record_report ?now t ~node ~regions ~free_bytes =
  (match now with Some now -> heartbeat t ~node ~now | None -> ());
  Hashtbl.replace t.free_pool node free_bytes;
  (* Drop the node's stale claims, then re-add the fresh ones. *)
  Gaddr.Table.iter
    (fun _ hint -> hint.holders <- List.filter (fun n -> n <> node) hint.holders)
    t.hints;
  List.iter
    (fun (base, desc) ->
      match Gaddr.Table.find_opt t.hints base with
      | Some hint ->
        if not (List.mem node hint.holders) then
          hint.holders <- node :: hint.holders
      | None -> Gaddr.Table.replace t.hints base { desc; holders = [ node ] })
    regions;
  let empty =
    Gaddr.Table.fold
      (fun base hint acc -> if hint.holders = [] then base :: acc else acc)
      t.hints []
  in
  List.iter (Gaddr.Table.remove t.hints) empty

(* The first match is the only one, whatever the table's order: hints
   describe regions, and regions never overlap. *)
let lookup t addr =
  let found =
    Gaddr.Table.fold
      (fun _ hint best ->
        match best with
        | Some _ -> best
        | None -> if Region.contains hint.desc addr then Some hint else None)
      t.hints None
  in
  match found with
  | Some hint -> (Some hint.desc, hint.holders)
  | None -> (None, [])

let free_bytes_hint t =
  Hashtbl.fold (fun n b acc -> (n, b) :: acc) t.free_pool []
  |> List.sort compare

let chunks_granted t = t.next_chunk_index
