(* A network-free test harness for consistency-manager machines.

   One machine per node for a single shared page; messages queue in a list
   the test drains explicitly (in order, or in a seeded random order, to
   explore interleavings). Timers are collected and only fired when a test
   asks for it, so the fault-free properties can be checked strictly. *)

module Ctypes = Kconsistency.Types
module Machine = Kconsistency.Machine_intf

type t = {
  nodes : int list;
  make : int -> Ctypes.init -> Machine.packed;  (* a fresh machine for a node *)
  machines : (int, Machine.packed) Hashtbl.t;
  mutable wire : (int * int * Ctypes.msg) list; (* src, dst, msg; in-flight *)
  mutable timers : (int * int) list;            (* node, timer id *)
  mutable granted : (int * int) list;           (* node, req *)
  mutable rejected : (int * int) list;
  mutable installed : (int * bytes) list;       (* node, data: last install *)
  mutable next_req : int;
  rng : Kutil.Rng.t;
}

let create ?(seed = 1) ~protocol ~home ~min_replicas ~nodes ~initial () =
  let make node init =
    let cfg =
      {
        (Ctypes.default_config ~self:node ~home) with
        Ctypes.min_replicas;
        replica_targets = List.filter (fun n -> n <> home) nodes;
      }
    in
    match Kconsistency.Registry.instantiate protocol cfg init with
    | Some m -> m
    | None -> failwith ("unknown protocol " ^ protocol)
  in
  let machines = Hashtbl.create 8 in
  List.iter
    (fun node ->
      Hashtbl.replace machines node
        (make node
           (if node = home then Ctypes.Start_owner initial
            else Ctypes.Start_unknown)))
    nodes;
  {
    nodes;
    make;
    machines;
    wire = [];
    timers = [];
    granted = [];
    rejected = [];
    installed = [];
    next_req = 0;
    rng = Kutil.Rng.create ~seed;
  }

let machine t node = Hashtbl.find t.machines node

let rec apply t node actions =
  List.iter
    (fun action ->
      match action with
      | Ctypes.Send (dst, msg) -> t.wire <- t.wire @ [ (node, dst, msg) ]
      | Ctypes.Grant req -> t.granted <- (node, req) :: t.granted
      | Ctypes.Reject (req, _) -> t.rejected <- (node, req) :: t.rejected
      | Ctypes.Install { data; _ } ->
        t.installed <- (node, data) :: List.remove_assoc node t.installed
      | Ctypes.Discard -> t.installed <- List.remove_assoc node t.installed
      | Ctypes.Start_timer { id; _ } -> t.timers <- (node, id) :: t.timers
      | Ctypes.Sharers_hint _ -> ())
    actions

and feed t node event = apply t node (Machine.handle_packed (machine t node) event)

(* Deliver the in-flight message at [index]. *)
let deliver_nth t index =
  match List.nth_opt t.wire index with
  | None -> false
  | Some (src, dst, msg) ->
    t.wire <- List.filteri (fun i _ -> i <> index) t.wire;
    feed t dst (Ctypes.Peer { src; msg });
    true

let deliver_one t = deliver_nth t 0
let random_index t = Kutil.Rng.int t.rng (max 1 (List.length t.wire))
let deliver_random t = deliver_nth t (random_index t)

(* Deliver a copy of a random in-flight message and leave the original in
   flight: the network duplicated it. *)
let duplicate_random t =
  match List.nth_opt t.wire (random_index t) with
  | None -> ()
  | Some (src, dst, msg) -> feed t dst (Ctypes.Peer { src; msg })

let rec drain ?(random = false) t =
  if t.wire <> [] then begin
    ignore (if random then deliver_random t else deliver_one t);
    drain ~random t
  end

(* Drop every in-flight message to or from a node (models its crash). *)
let drop_node t node =
  t.wire <- List.filter (fun (s, d, _) -> s <> node && d <> node) t.wire

(* Replace [node]'s machine with a fresh one started from [init], as a
   crash and restart does: a home comes back from its disk image. *)
let restart t node init = Hashtbl.replace t.machines node (t.make node init)

let fire_all_timers t =
  let timers = t.timers in
  t.timers <- [];
  List.iter (fun (node, id) -> feed t node (Ctypes.Timeout id)) timers

let acquire t node mode =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  feed t node (Ctypes.Acquire { req; mode });
  req

let release t node mode ~data = feed t node (Ctypes.Release { mode; data })
let is_granted t req = List.exists (fun (_, r) -> r = req) t.granted
let is_rejected t req = List.exists (fun (_, r) -> r = req) t.rejected

let acquire_sync ?(random = false) t node mode =
  let req = acquire t node mode in
  drain ~random t;
  if not (is_granted t req) then
    failwith
      (Printf.sprintf "acquire %s on n%d not granted"
         (Ctypes.mode_to_string mode) node);
  req

let locks t node = Machine.packed_locks_held (machine t node)
let state t node = Machine.packed_state_name (machine t node)
let has_copy t node = Machine.packed_has_valid_copy (machine t node)
let version t node = Machine.packed_version (machine t node)
let installed_data t node = List.assoc_opt node t.installed

(* ----------------------- Multi-page delivery ----------------------- *)

(* A multi-page conversation is several single-page harnesses (machines
   are strictly per page; pages never exchange messages). The two drain
   orders below model the wire-level difference RPC coalescing makes:
   per-page unicast interleaves pages arbitrarily, while a batch envelope
   lands every same-destination message in one consecutive burst. The
   machines must not care — see the equivalence test. *)

let multi_pending harnesses = List.exists (fun t -> t.wire <> []) harnesses

(* One message from each page that has one: the interleaved unicast order. *)
let deliver_interleaved harnesses =
  List.iter (fun t -> ignore (deliver_one t)) harnesses

(* Every in-flight message (across all pages) bound for the destination of
   the oldest in-flight message, delivered back to back: what the receiver
   of one batch envelope observes. *)
let deliver_batched harnesses =
  match List.find_opt (fun t -> t.wire <> []) harnesses with
  | None -> ()
  | Some first ->
    let _, dst, _ = List.hd first.wire in
    List.iter
      (fun t ->
        let mine, rest = List.partition (fun (_, d, _) -> d = dst) t.wire in
        t.wire <- rest;
        List.iter (fun (src, _, msg) -> feed t dst (Ctypes.Peer { src; msg })) mine)
      harnesses

let rec multi_drain ~batched harnesses =
  if multi_pending harnesses then begin
    if batched then deliver_batched harnesses
    else deliver_interleaved harnesses;
    multi_drain ~batched harnesses
  end

(* CREW safety: at most one write lock system-wide, never concurrent with
   any other lock on another node. *)
let crew_invariant_violation t =
  let holders =
    List.filter_map
      (fun node ->
        let readers, writer = locks t node in
        if readers > 0 || writer then Some (node, readers, writer) else None)
      t.nodes
  in
  let writers = List.filter (fun (_, _, w) -> w) holders in
  match writers with
  | [] -> None
  | [ (w, _, _) ] ->
    if List.exists (fun (n, _, _) -> n <> w) holders then
      Some
        (Printf.sprintf "writer on n%d concurrent with other lock holders" w)
    else None
  | _ -> Some "multiple concurrent writers"
