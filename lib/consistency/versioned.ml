(** MVCC — immutable versioned pages, concurrent writers, snapshot reads.

    BlobSeer-style versioning dropped into the Brun-Cottan CM seam: the
    home mints a monotonically increasing version id per page and retains a
    bounded chain of immutable images behind the latest one. Writers never
    take ownership and never invalidate anybody — they publish a new
    version at the home (last-writer-wins by home arrival order, optional
    CAS on [expected]) and replicas converge through a timer-batched
    Update fan-out, exactly like the eventual CM's anti-entropy. Readers
    are served from whatever version their snapshot pinned; a reader
    pinned at [v] is untouched by the publish of [v+1].

    Division of labour with the daemon: the machine is the authority on
    versions (minting, chain retention, fan-out); the daemon owns diff
    extraction ({!Types.diff} of the written page against this machine's
    copy), the [Page_diff] RPC that carries a publish to a remote home,
    and snapshot pinning.
    The machine also has a self-contained fallback publish path — a
    [Release] carrying page bytes turns into a whole-image publish — so
    the protocol is complete under the pure-machine test harness with no
    daemon above it. *)

open Types
module NSet = Replica.NSet

(** One retained immutable version at the home. Newest first in the chain;
    the oldest retained entry is the GC watermark. *)
type entry = { e_ver : version; e_data : bytes }

let retained (t : entry list Replica.t) v =
  List.find_opt (fun e -> e.e_ver = v) t.extra
  |> Option.map (fun e -> e.e_data)

(* Mint the next immutable version at the home. Reversed-acc convention:
   callers pass and receive an acc that [List.rev] later restores. An
   [absorbed] image follows the core's rule and waits for a local writer's
   release; a publish installs at once, because the home acknowledges it
   and the install is what puts it in the intent log. The chain, [data]
   and the store all share [img]: page images are never changed once
   made, so no mint copies one. *)
let mint ?(absorbed = false) (t : entry list Replica.t) ~src img acc =
  let v = t.ver + 1 in
  t.extra <-
    List.filteri
      (fun i _ -> i < max 1 t.cfg.version_chain_depth)
      ({ e_ver = v; e_data = img } :: t.extra);
  t.ver <- v;
  if src <> t.cfg.self then t.copyset <- NSet.add src t.copyset;
  let acc =
    if absorbed then Replica.refresh ~dirty:true t img acc
    else begin
      t.data <- Some img;
      Install { data = img; dirty = true } :: acc
    end
  in
  Replica.arm_fanout t acc

include Replica.Make (struct
  type extra = entry list  (** the home's chain, newest first *)

  let name = "versioned"

  let init = function
    | Some b -> [ { e_ver = 1; e_data = b } ]
    | None -> []

  let period = Replica.propagate_every

  (* Never absorb a fan-out while a local writer holds the page: the
     daemon diffs the written page against this copy at unlock, so it must
     stay the version the writer started from. The skipped update is
     recovered by the next fan-out round or Pull_req. *)
  let fresh (t : extra Replica.t) version =
    version > t.ver && not (Replica.writer_held t)

  (* A cache released a write it could not diff (machine-only path):
     publish it whole. The home mints — arrival order is the
     last-writer-wins order; the version the cache stamped is only its
     own parent and does not gate acceptance. *)
  let absorb t ~src msg acc =
    match msg with
    | Update { data; version = _ } -> mint ~absorbed:true t ~src data acc
    | _ -> acc

  (* Machine-only publish path: whole image to the home. The daemon path
     releases with [data = None] and publishes runs itself. *)
  let release (t : extra Replica.t) img acc =
    t.data <- Some img;
    if Replica.is_home t then mint t ~src:t.cfg.self img acc
    else Send (t.cfg.home, Update { data = img; version = t.ver }) :: acc

  (* History did not survive the crash: restart the chain at the best
     version the survivors vouch for. Snapshot pins into the lost chain
     now read as expired, which is the safe failure. *)
  let restart (t : extra Replica.t) =
    match t.data with
    | Some d -> t.extra <- [ { e_ver = t.ver; e_data = d } ]
    | None -> ()
end)

let state_name (t : t) =
  if Replica.is_home t then "home" else if t.data = None then "invalid"
  else "replica"

let backup_version (t : t) = if Replica.is_home t then t.ver else 0

(* Extra introspection for directed tests; not part of MACHINE. *)

let chain_depth (t : t) = List.length t.extra
(** Number of immutable versions currently retained at the home. *)

let watermark (t : t) =
  match List.rev t.extra with [] -> 0 | oldest :: _ -> oldest.e_ver
(** Oldest retained version; snapshot pins below this have expired. *)

let read_at (t : t) at =
  match at with
  | None -> (
    match t.data with Some d -> Some (d, t.ver) | None -> None)
  | Some v ->
    if Replica.is_home t then retained t v |> Option.map (fun d -> (d, v))
    else (
      match t.data with
      | Some d when t.ver = v -> Some (d, v)
      | Some _ | None -> None)

let publish (t : t) ~src ~parent ~expected ~payload =
  if not (Replica.is_home t) then (Publish_unsupported, [])
  else
    match t.data with
    | None -> (Publish_unsupported, [])
    | Some _ -> (
      match expected with
      | Some e when e <> t.ver -> (Cas_mismatch { latest = t.ver }, [])
      | Some _ | None -> (
        match payload with
        | Whole img ->
          let acc = mint t ~src img [] in
          (Published t.ver, List.rev acc)
        | Runs runs -> (
          match retained t parent with
          | None -> (Parent_gone { latest = t.ver }, [])
          | Some base ->
            let acc = mint t ~src (apply_runs base runs) [] in
            (Published t.ver, List.rev acc))))
