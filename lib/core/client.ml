module Trace = Ktrace.Trace
module Op_ctx = Ktrace.Op_ctx
module History = Kcheck.History

type t = {
  daemon : Daemon.t;
  principal : int;
  mutable hist : History.recorder option;
  (* open transactions' history op ids, keyed by Daemon.txn_uid *)
  hist_txns : (int, int) Hashtbl.t;
}

let connect daemon ~principal =
  { daemon; principal; hist = None; hist_txns = Hashtbl.create 8 }

let set_history t r = t.hist <- r

(* Outcome classification for the history: an error that may have left
   the operation applied anyway (silence, a node mid-crash, an opaque
   rpc failure) is [Maybe]; an error raised before anything could land
   is a definite [Fail]. [Maybe] is always sound — it only weakens what
   the checker may assume. *)
let classify_error = function
  | `Timeout | `Unreachable | `Unavailable _ | `Rpc _ -> History.Maybe
  | `Conflict _ | `Access_denied | `Not_allocated | `Bad_range -> History.Fail
let daemon t = t.daemon
let principal t = t.principal

(* Every client operation runs under an operation context. When the caller
   supplies one we join it (nested operations share one trace); otherwise we
   mint a fresh root span named after the operation — unless tracing is off,
   in which case the context is a free two-word record and nothing else
   happens. *)
let with_op t name ctx f =
  match ctx with
  | Some ctx -> f ctx
  | None ->
    if not (Trace.enabled ()) then f (Op_ctx.make t.principal)
    else begin
      let engine = Daemon.engine t.daemon in
      let span = Trace.root ~engine ~node:(Daemon.id t.daemon) name in
      Fun.protect
        ~finally:(fun () -> Trace.finish ~engine span)
        (fun () -> f (Op_ctx.make ~span t.principal))
    end

let reserve t ?attr ?ctx len =
  with_op t "client.reserve" ctx (fun ctx ->
      Daemon.reserve t.daemon ?attr ~ctx len)

let unreserve t ?ctx base =
  with_op t "client.unreserve" ctx (fun ctx ->
      Daemon.unreserve t.daemon ~ctx base)

let allocate t ?ctx base =
  with_op t "client.allocate" ctx (fun ctx ->
      Daemon.allocate t.daemon ~ctx base)

let free t ?ctx base =
  with_op t "client.free" ctx (fun ctx -> Daemon.free t.daemon ~ctx base)

let lock t ?ctx ~addr ~len mode =
  with_op t "client.lock" ctx (fun ctx ->
      Daemon.lock t.daemon ~ctx ~addr ~len mode)

let unlock t ctx = Daemon.unlock t.daemon ctx
let read t ctx ~addr ~len = Daemon.read t.daemon ctx ~addr ~len
let write t ctx ~addr data = Daemon.write t.daemon ctx ~addr data

let get_attr t ?ctx addr =
  with_op t "client.get_attr" ctx (fun ctx ->
      Daemon.get_attr t.daemon ~ctx addr)

let set_attr t ?ctx base attr =
  with_op t "client.set_attr" ctx (fun ctx ->
      Daemon.set_attr t.daemon ~ctx base attr)

let create_region t ?attr ?ctx len =
  with_op t "client.create_region" ctx (fun ctx ->
      match Daemon.reserve t.daemon ?attr ~ctx len with
      | Error _ as e -> e
      | Ok region -> (
        match Daemon.allocate t.daemon ~ctx region.Region.base with
        | Ok () -> Ok (Region.allocated region)
        | Error e -> Error e))

(* The unlock runs on every exit, an exception included; a plain match
   keeps the per-operation path free of [Fun.protect]'s closures. *)
let with_lock_in t ctx ~addr ~len mode f =
  match Daemon.lock t.daemon ~ctx ~addr ~len mode with
  | Error e -> Error e
  | Ok lctx -> (
    match f lctx with
    | v ->
      unlock t lctx;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unlock t lctx;
      Printexc.raise_with_backtrace e bt)

(* Run [f] as one history operation when a recorder is set: [call] is
   invoked first, then finished with [f]'s outcome, carrying [value] of a
   successful result. *)
let recorded t ?value call f =
  match t.hist with
  | None -> f ()
  | Some r ->
    let id = History.invoke r (call ()) in
    let res = f () in
    (match res with
     | Ok v ->
       History.finish r ~id ?value:(Option.map (fun g -> g v) value) History.Ok_
     | Error e -> History.finish r ~id (classify_error e));
    res

let txn t ?ctx f =
  with_op t "client.txn" ctx (fun ctx ->
      let txn = Daemon.txn_begin t.daemon ~ctx in
      let uid = Daemon.txn_uid txn in
      (match t.hist with
      | Some r -> Hashtbl.replace t.hist_txns uid (History.invoke r History.Txn)
      | None -> ());
      let record status =
        (match t.hist with
        | Some r -> (
          match Hashtbl.find_opt t.hist_txns uid with
          | Some id -> History.finish r ~id status
          | None -> ())
        | None -> ());
        Hashtbl.remove t.hist_txns uid
      in
      let result =
        try f txn
        with e ->
          Daemon.txn_abort t.daemon txn;
          record History.Fail;
          raise e
      in
      match result with
      | Ok v -> (
        match Daemon.txn_commit t.daemon txn with
        | Ok () ->
          record History.Ok_;
          Ok v
        | Error e ->
          (* commit errors other than a definite conflict leave the
             decision with the coordinator machinery: the transaction
             may still land (recovery rebroadcast), so it is ambiguous *)
          record (classify_error e);
          Error (e : Daemon.error :> [> Daemon.error ]))
      | Error _ as e ->
        Daemon.txn_abort t.daemon txn;
        record History.Fail;
        e)

let txn_hist_id t txn =
  match t.hist with
  | None -> None
  | Some r -> (
    match Hashtbl.find_opt t.hist_txns (Daemon.txn_uid txn) with
    | Some id -> Some (r, id)
    | None -> None)

let txn_read t txn ~addr ~len =
  match Daemon.txn_read t.daemon txn ~addr ~len with
  | Ok bytes as ok ->
    (match txn_hist_id t txn with
    | Some (r, id) -> History.txn_read_entry r ~id addr (Bytes.to_string bytes)
    | None -> ());
    ok
  | Error e -> Error (e : Daemon.error :> [> Daemon.error ])

let txn_write t txn ~addr data =
  match Daemon.txn_write t.daemon txn ~addr data with
  | Ok _ as ok ->
    (match txn_hist_id t txn with
    | Some (r, id) -> History.txn_write_entry r ~id addr (Bytes.to_string data)
    | None -> ());
    ok
  | Error e -> Error (e : Daemon.error :> [> Daemon.error ])

let read_bytes t ?ctx ~addr len =
  with_op t "client.read_bytes" ctx (fun ctx ->
      recorded t ~value:Bytes.to_string
        (fun () -> History.Read { addr; len })
        (fun () ->
          with_lock_in t ctx ~addr ~len Kconsistency.Types.Read (fun lctx ->
              read t lctx ~addr ~len)))

(* --- MVCC snapshots (versioned regions) --- *)

let snapshot t = Daemon.snapshot_begin t.daemon
let release_snapshot t snap = Daemon.snapshot_release t.daemon snap

let snapshot_read t ?ctx ~snap ~addr len =
  with_op t "client.snapshot_read" ctx (fun ctx ->
      recorded t ~value:Bytes.to_string
        (fun () -> History.Sread { addr; len; snap })
        (fun () -> Daemon.snapshot_read t.daemon ~ctx ~snap ~addr ~len))

let page_version t ?ctx addr =
  with_op t "client.page_version" ctx (fun ctx ->
      Daemon.page_version t.daemon ~ctx ~addr)

let write_call ~addr data () =
  History.Write { addr; value = Bytes.to_string data }

let write_cas t ?ctx ~addr ~expected data =
  with_op t "client.write_cas" ctx (fun ctx ->
      recorded t (write_call ~addr data) (fun () ->
          Daemon.write_cas t.daemon ~ctx ~addr ~expected data))

let write_bytes t ?ctx ~addr data =
  with_op t "client.write_bytes" ctx (fun ctx ->
      recorded t (write_call ~addr data) (fun () ->
          Daemon.write_sync t.daemon ~ctx ~addr data))
