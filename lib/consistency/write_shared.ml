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

(* Contiguous byte ranges where [new_] differs from [old]. If lengths
   differ (they should not for page data), the whole buffer is one patch. *)
let diff ~old ~new_ =
  if Bytes.length old <> Bytes.length new_ then [ (0, Bytes.copy new_) ]
  else begin
    let n = Bytes.length new_ in
    let patches = ref [] in
    let i = ref 0 in
    while !i < n do
      if Bytes.get old !i <> Bytes.get new_ !i then begin
        let start = !i in
        while !i < n && Bytes.get old !i <> Bytes.get new_ !i do
          incr i
        done;
        patches := (start, Bytes.sub new_ start (!i - start)) :: !patches
      end
      else incr i
    done;
    List.rev !patches
  end

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
    let img =
      match (t.stored, t.data) with
      | Some (seen, _), Some data ->
        (* The writer started from [seen], not from the patches merged
           into [data] since: lay only the bytes it changed over them. *)
        apply_runs data (diff ~old:seen ~new_:written)
      | _ -> written
    in
    let patches =
      match t.data with
      | Some old -> diff ~old ~new_:img
      | None -> [ (0, Bytes.copy img) ]
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
