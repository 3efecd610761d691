(** Write-shared — multiple concurrent writers with diff merging.

    The paper's answer to false sharing on fine-grained objects (§4.2):
    "Khazana's CM interface adopts the approach of Brun-Cottan and
    Makpangou to enable better application-specific conflict detection".
    Here the conflict granularity is the byte range: on release only the
    bytes the writer changed since its lock began are laid over the local
    copy and ship to the home, which merges them into its authoritative
    copy (last-arrival wins within an overlapping byte) and fans the patch
    out to the other replicas. Writers on disjoint parts of a page — e.g.
    different pooled objects — never invalidate each other, so there is no
    ownership ping-pong.

    Like eventual consistency, locks grant locally against whatever replica
    is present (fetch on first touch); unlike eventual, writes propagate
    eagerly as diffs, and a periodic full-page sync from the home heals any
    lost patches. Lock modes keep their node-local meaning (one local
    writer at a time), but write locks are not globally exclusive — that is
    the point. *)

open Types
module NSet = Replica.NSet

include Replica.Make (struct
  type extra = unit

  let name = "wshared"
  let init _ = ()

  (* Full-page anti-entropy heals lost patches; a few propagation periods
     apart so diffs dominate the steady state. *)
  let period = 4 * Replica.propagate_every

  (* Skip a full sync while a local writer is active: its diff will carry
     its bytes, and the next sync carries everyone else's. *)
  let fresh (t : extra Replica.t) version =
    (not (Replica.writer_held t)) && version >= t.ver

  (* Eagerly fan a patch out to every replica but [except]; the timer's
     full sync is the safety net. *)
  let fan_out (t : extra Replica.t) ~except patches acc =
    Replica.arm_fanout t
      (NSet.fold
         (fun n acc ->
           if n = except || n = t.cfg.self then acc
           else Send (n, Diff { patches; version = t.ver }) :: acc)
         t.copyset acc)

  let absorb (t : extra Replica.t) ~src msg acc =
    match msg with
    | Update { data; version } -> Replica.lww t data version acc
    | Diff { patches; version } ->
      let acc =
        match t.data with
        | Some data ->
          Replica.refresh t (apply_runs data patches) acc
        | None -> acc
      in
      if version > t.ver then t.ver <- version;
      if Replica.is_home t then fan_out t ~except:src patches acc
      else if t.data <> None then Replica.pump_local t acc
      else acc
    | _ -> acc

  let release (t : extra Replica.t) written acc =
    (* The writer started from [stored] when absorbs moved [data] past it
       under the lock, else from [data]. One compare against that image
       finds the bytes it changed; they ship, laid over [data]. *)
    let img, patches =
      match (t.stored, t.data) with
      | _, None -> (written, [ (0, written) ])
      | None, Some seen -> (written, diff ~old:seen ~new_:written)
      | Some (seen, _), Some data ->
        let patches = diff ~old:seen ~new_:written in
        (apply_runs data patches, patches)
    in
    t.data <- Some img;
    let acc = Install { data = img; dirty = false } :: acc in
    if patches = [] then acc (* nothing changed: no new version *)
    else begin
      t.ver <- Replica.next_version ~current:t.ver ~origin:t.cfg.self;
      if Replica.is_home t then fan_out t ~except:t.cfg.self patches acc
      else Send (t.cfg.home, Diff { patches; version = t.ver }) :: acc
    end

  let restart _ = ()
end)
